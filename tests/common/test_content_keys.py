"""The content-key rules: one digest scheme, injective in content and
the same in every process.

Every cache key is a 16-byte blake2b digest over the ``repr()`` of
primitives-only ``cache_key()`` content (``repro.common.cache``). The
digest is only as good as that ``repr``: it must tell different
content apart (hand-written reprs can collide) and must not depend on
the process (a frozenset's order follows ``PYTHONHASHSEED``). Running
this file as a script prints the stage keys of every bundled design
family, which the cross-process test compares under two hash seeds.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro import Workload, matmul
from repro.api import FusedMapping, Session
from repro.common.cache import global_cache, spec_digest
from repro.common.errors import SpecError
from repro.dataflow.nest_analysis import analyze_dataflow, dense_analysis_key
from repro.designs import codesign, dstc, eyeriss, eyeriss_v2, scnn, stc, toy
from repro.designs.common import conv_as_gemm, generic_einsum_mapping
from repro.distributed.store import StreamStore
from repro.mapping.mapspace import MapspaceConstraints, sampled_candidates_key
from repro.model.engine import Design, persistent_state_key
from repro.sparse.density import FixedStructuredDensity, UniformDensity
from repro.sparse.format_analyzer import TILE_FORMAT_STAGE, clear_tile_format_cache
from repro.sparse.postprocess import ensure_output_density, sparse_analysis_key
from repro.sparse.saf import ComputeSAF, SAFKind
from repro.workload.nets import alexnet, mobilenet_v1, resnet50
from tests.workload.test_graph import chain_graph


def bundled_points() -> list[tuple[str, Design, Workload]]:
    """One (name, design, workload) point per bundled design family:
    the seven non-co-design families on their reference shapes and the
    four Fig. 17 co-design combinations."""
    mm64 = matmul(64, 64, 64)
    conv = alexnet()[2].spec
    mobile = mobilenet_v1()[3].spec
    gemm = conv_as_gemm(resnet50()[10])
    points = [
        ("toy-bitmask", toy.bitmask_design(), Workload.uniform(mm64, {"A": 0.3, "B": 0.5})),
        (
            "toy-coordinate-list",
            toy.coordinate_list_design(),
            Workload.uniform(mm64, {"A": 0.3, "B": 0.5}),
        ),
        ("eyeriss", eyeriss.eyeriss_design(), Workload.uniform(conv, {"I": 0.4})),
        (
            "eyeriss-v2-pe",
            eyeriss_v2.eyeriss_v2_pe_design(),
            Workload.uniform(mobile, {"I": 0.4, "W": 0.6}),
        ),
        ("scnn", scnn.scnn_design(), Workload.uniform(conv, {"I": 0.4, "W": 0.6})),
        ("dstc", dstc.dstc_design(), Workload.uniform(gemm, {"A": 0.3, "B": 0.5})),
        (
            "stc",
            stc.stc_design(),
            Workload(
                gemm,
                {
                    "A": FixedStructuredDensity(2, 4),
                    "B": UniformDensity(0.5, gemm.tensor_size("B")),
                },
            ),
        ),
    ]
    big = Workload.uniform(matmul(256, 256, 256), {"A": 0.01, "B": 0.02})
    for dataflow, saf in codesign.ALL_COMBINATIONS:
        points.append(
            (f"{dataflow}.{saf}", codesign.build_design(dataflow, saf), big)
        )
    return points


def content_keys() -> list[str]:
    """One line per bundled family: its dense and sparse stage keys,
    its persistent snapshot key, and its stream-store key under the
    default constraints."""
    lines = []
    for name, design, workload in bundled_points():
        mapping = design.mapping_for(workload)
        dense = analyze_dataflow(workload, design.arch, mapping)
        stream = StreamStore.key(
            "sampled",
            sampled_candidates_key(
                workload.einsum, design.arch, MapspaceConstraints(), 0, 64
            ),
            64,
            0,
        )
        lines.append(
            f"{name} "
            f"dense={dense_analysis_key(workload, design.arch, mapping).hex()} "
            f"sparse={sparse_analysis_key(dense, design.safs).hex()} "
            f"state={persistent_state_key(design, [workload])} "
            f"stream={stream}"
        )
    return lines


def _is_primitive(value) -> bool:
    if type(value) is tuple:
        return all(_is_primitive(item) for item in value)
    return value is None or type(value) in (str, int, float, bool, bytes)


def _skip_compute_design(conditioned_on: tuple[str, ...]) -> Design:
    base = toy.bitmask_design()
    safs = replace(
        base.safs, compute_safs=[ComputeSAF(SAFKind.SKIP, conditioned_on)]
    )
    return replace(base, safs=safs)


class TestInjective:
    def test_saf_pair_with_equal_descriptions_keys_apart(self):
        # Both SAFs print "Skip Compute <- operands"; a digest of that
        # text would serve the first result for the second design.
        empty = _skip_compute_design(())
        named = _skip_compute_design(("operands",))
        assert repr(empty.safs.compute_safs) == repr(named.safs.compute_safs)
        with Session() as session:
            cycles = [
                session.evaluate(
                    design,
                    Workload.uniform(matmul(16, 16, 16), {"A": 0.3, "B": 0.5}),
                ).cycles
                for design in (empty, named)
            ]
        assert cycles == [614.4, 4096.0]


class TestProcessIndependent:
    def test_keys_agree_across_hash_seeds(self):
        outputs = []
        for seed in ("0", "1"):
            env = {
                **os.environ,
                "PYTHONHASHSEED": seed,
                "PYTHONPATH": os.pathsep.join(
                    [
                        str(Path(repro.__file__).resolve().parents[1]),
                        str(Path(__file__).resolve().parents[2]),
                    ]
                ),
            }
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve())],
                env=env,
                capture_output=True,
                text=True,
                timeout=300,
                check=True,
            )
            outputs.append(done.stdout)
        assert len(outputs[0].splitlines()) == len(bundled_points())
        assert outputs[0] == outputs[1]


class TestPrimitivesOnly:
    def test_every_bundled_key_holds_only_primitives(self):
        for name, design, workload in bundled_points():
            ensure_output_density(workload)
            specs = [
                workload.einsum,
                design.arch,
                design.safs,
                *design.safs.formats.values(),
                *(workload.density_of(t.name) for t in workload.einsum.tensors),
                design.mapping_for(workload),
                MapspaceConstraints(),
            ]
            if design.constraints is not None:
                specs.append(design.constraints)
            for spec in specs:
                key = spec.cache_key()
                assert _is_primitive(key), (name, type(spec).__name__, key)

    def test_non_primitive_density_key_raises_spec_error(self):
        class SetKeyedDensity(UniformDensity):
            def cache_key(self):
                return ("set-keyed", frozenset({"a", "b"}))

        einsum = matmul(16, 16, 16)
        workload = Workload(
            einsum,
            {
                "A": SetKeyedDensity(0.3, einsum.tensor_size("A")),
                "B": UniformDensity(0.5, einsum.tensor_size("B")),
            },
        )
        with Session() as session:
            with pytest.raises(SpecError, match="SetKeyedDensity"):
                session.evaluate(toy.bitmask_design(), workload)

    def test_spec_digest_is_memoised_and_none_when_uncacheable(self):
        class OpaqueDensity(UniformDensity):
            def cache_key(self):
                return None

        arch = toy.bitmask_design().arch
        assert spec_digest(arch) is spec_digest(arch)
        assert len(spec_digest(arch)) == 16
        assert spec_digest(OpaqueDensity(0.5)) is None


class TestStageKeysAreDigests:
    def test_every_stage_key_is_sixteen_bytes(self):
        clear_tile_format_cache()
        searched = replace(
            toy.bitmask_design(),
            mapping_factory=None,
            constraints=MapspaceConstraints(),
        )
        fused_design = replace(
            toy.dense_design(), mapping_factory=generic_einsum_mapping
        )
        workload = Workload.uniform(matmul(64, 64, 64), {"A": 0.3, "B": 0.5})
        with Session(check_capacity=False, search_budget=8) as session:
            session.evaluate(toy.bitmask_design(), workload)
            session.search(searched, workload)
            session.evaluate_fused(
                fused_design,
                chain_graph(),
                {"A": 0.5, "B": 0.6, "H": 0.7, "C": 0.4},
                fused=FusedMapping(fuse_at="Buffer"),
            )
            state = session.evaluator.cache.export_state(per_stage_limit=None)
        assert {"dense", "sparse", "candidates", "fused"} <= set(state)
        state[TILE_FORMAT_STAGE] = global_cache().stage(
            TILE_FORMAT_STAGE
        ).export_entries(limit=None)
        for name, pairs in state.items():
            assert pairs, name
            for key, _value in pairs:
                assert type(key) is bytes and len(key) == 16, (name, key)


if __name__ == "__main__":
    print("\n".join(content_keys()))
