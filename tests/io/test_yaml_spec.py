"""Tests for the YAML specification front-end (Fig. 6 inputs)."""

import pytest
import yaml

from repro import Session
from repro.common.cache import spec_digest
from repro.common.errors import SpecError
from repro.io.yaml_spec import (
    _parse_format,
    load_architecture,
    load_design,
    load_fused_spec,
    load_mapping,
    load_saf_spec,
    load_workload,
)
from repro.sparse.saf import SAFKind
from tests.io.test_fused_spec import FUSED_SPEC

FULL_SPEC = """
name: fig6-example
arch:
  name: simple
  storage:
    - {name: BackingStorage, component: dram}
    - {name: Buffer, capacity_words: 4096, component: sram,
       read_bandwidth: 4, write_bandwidth: 4}
  compute: {name: MAC, instances: 4}

workload:
  kernel: matmul
  dims: {m: 16, k: 16, n: 16}
  densities: {A: 0.25, B: 0.5}

safs:
  formats:
    - {level: Buffer, tensor: A, format: CSR}
    - {level: BackingStorage, tensor: A, format: B-RLE}
  actions:
    - {kind: skip, target: B, condition_on: [A], level: Buffer}
    - {kind: gate, unit: compute}

mapping:
  - level: BackingStorage
    temporal: [{dim: m, bound: 4}]
  - level: Buffer
    temporal: [{dim: m, bound: 4}, {dim: k, bound: 16},
               {dim: n, bound: 4}]
    spatial: [{dim: n, bound: 4}]
"""


#: ``(path under arch, value, text the error must contain)``.
BAD_ARCH_ENTRIES = [
    pytest.param(("storage", 0, "read_bandwidth"), 0, "read_bandwidth",
                 id="zero-bandwidth"),
    pytest.param(("storage", 1, "read_bandwidth"), -1, "read_bandwidth",
                 id="negative-bandwidth"),
    pytest.param(("storage", 1, "write_bandwidth"), "fast", "'fast'",
                 id="string-bandwidth"),
    pytest.param(("storage", 1, "read_bw"), 8, "'read_bw'",
                 id="unknown-storage-key"),
    pytest.param(("storage", 1, "instances"), 1.5, "instances",
                 id="fractional-instances"),
    pytest.param(("storage", 0), "DRAM", "'DRAM'",
                 id="storage-not-a-mapping"),
    pytest.param(("storage",), {"name": "DRAM"}, "must be a list",
                 id="storage-not-a-list"),
    pytest.param(("compute", "lanes"), 4, "'lanes'",
                 id="unknown-compute-key"),
    pytest.param(("compute", "instances"), 0.5, "instances",
                 id="fractional-compute-instances"),
    pytest.param(("compute",), ["MAC"], "['MAC']",
                 id="compute-not-a-mapping"),
]


def spec_with_bad_arch(path, value) -> dict:
    """:data:`FULL_SPEC` with ``spec["arch"]`` set to ``value`` at
    ``path``."""
    spec = yaml.safe_load(FULL_SPEC)
    parent = spec["arch"]
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return spec


class TestArchitecture:
    def test_round_trip(self):
        arch = load_architecture(FULL_SPEC)
        assert arch.level_names == ["BackingStorage", "Buffer"]
        assert arch.level("Buffer").capacity_words == 4096
        assert arch.compute.instances == 4

    def test_missing_storage_rejected(self):
        with pytest.raises(SpecError):
            load_architecture({"arch": {"name": "x"}})

    def test_missing_level_name_rejected(self):
        with pytest.raises(SpecError):
            load_architecture(
                {"arch": {"storage": [{"capacity_words": 4}]}}
            )

    @pytest.mark.parametrize("path,value,needle", BAD_ARCH_ENTRIES)
    def test_malformed_entry_names_it(self, path, value, needle):
        with pytest.raises(SpecError) as info:
            load_architecture(spec_with_bad_arch(path, value))
        assert needle in str(info.value)

    def test_loading_keeps_values_as_given(self):
        arch = load_architecture(FULL_SPEC)
        assert type(arch.level("Buffer").read_bandwidth) is int
        assert arch.cache_key() == load_architecture(FULL_SPEC).cache_key()


class TestWorkload:
    def test_round_trip(self):
        wl = load_workload(FULL_SPEC)
        assert wl.einsum.dims == {"m": 16, "k": 16, "n": 16}
        assert wl.density_of("A").density == 0.25

    def test_conv_kernel(self):
        wl = load_workload(
            {
                "workload": {
                    "kernel": "conv2d",
                    "dims": {
                        "n": 1, "k": 4, "c": 4, "p": 8, "q": 8,
                        "r": 3, "s": 3,
                    },
                }
            }
        )
        assert wl.einsum.tensor_shape("I") == (1, 4, 10, 10)

    def test_unknown_kernel(self):
        with pytest.raises(SpecError):
            load_workload({"workload": {"kernel": "fft"}})


#: Malformed format descriptions, each with a piece of the offending
#: item that the SpecError must name.
BAD_FORMATS = [
    pytest.param([{"rank": "CP", "coord_bits": "3"}], "'3'", id="str-bits"),
    pytest.param([{"rank": "CP", "bogus": 1}], "bogus", id="unknown-key"),
    pytest.param(
        [{"rank": "B", "coord_bits": 3}], "coord_bits", id="foreign-key"
    ),
    pytest.param([{"coord_bits": 3}], "{'coord_bits': 3}", id="no-rank"),
    pytest.param([{"rank": "U"}, "CP"], "'CP'", id="not-a-mapping"),
    pytest.param("B^x-CP", "'B^x'", id="text-count"),
    pytest.param("B^0-CP", "'B^0'", id="text-zero-count"),
    pytest.param(
        [{"rank": "CP", "coord_bits": -2}], "coord_bits", id="negative-bits"
    ),
    pytest.param([{"rank": "CP", "coord_bits": 0}], "coord_bits", id="zero"),
    pytest.param(
        [{"rank": "UOP", "offset_bits": -1}], "offset_bits", id="uop"
    ),
    pytest.param(
        [{"rank": "CP", "coord_bits": True}], "coord_bits", id="bool-bits"
    ),
    pytest.param([{"rank": "RLE", "run_bits": 2.5}], "run_bits", id="rle"),
    pytest.param(
        [{"rank": "B", "flattened_ranks": 2.0}],
        "flattened_ranks",
        id="float-count",
    ),
]


class TestFormats:
    def test_classic_name(self):
        assert _parse_format("CSR").describe() == "UOP-CP"

    def test_dash_composed(self):
        assert _parse_format("B-UOP-RLE").describe() == "B-UOP-RLE(4b)"

    def test_flattened_superscript(self):
        fmt = _parse_format("CP^2")
        assert fmt.tensor_rank_count == 2

    def test_structured_rank_list(self):
        fmt = _parse_format(
            [
                {"rank": "U"},
                {"rank": "CP", "coord_bits": 2},
            ]
        )
        assert fmt.describe() == "U-CP(2b)"

    def test_unknown_rank(self):
        with pytest.raises(SpecError):
            _parse_format("B-XYZ")

    @pytest.mark.parametrize("desc,needle", BAD_FORMATS)
    def test_malformed_rank_names_the_item(self, desc, needle):
        with pytest.raises(SpecError, match="format rank") as info:
            _parse_format(desc)
        assert needle in str(info.value)


#: Malformed ``safs`` input: ``(path, value, needle)`` sets
#: ``spec["safs"]`` at ``path`` to ``value``; the error must name the
#: offending entry through ``needle``.
BAD_SAF_ENTRIES = [
    pytest.param(("formats", 0), "A@Buffer:CSR", "'A@Buffer:CSR'",
                 id="format-not-a-mapping"),
    pytest.param(("formats", 0), {"level": "Buffer", "tensor": "A"},
                 "'format'", id="no-format"),
    pytest.param(("formats", 0), {"tensor": "A", "format": "CSR"},
                 "'level'", id="no-level"),
    pytest.param(("formats", 0), {"level": "Buffer", "format": "CSR"},
                 "'tensor'", id="no-tensor"),
    pytest.param(("formats",), {"level": "Buffer"}, "must be a list",
                 id="formats-not-a-list"),
    pytest.param(
        ("actions", 0),
        {"kind": "skipp", "target": "B", "condition_on": ["A"],
         "level": "Buffer"},
        "'skipp'",
        id="unknown-kind",
    ),
    pytest.param(("actions", 1), {"unit": "compute"}, "'kind'",
                 id="no-kind"),
    pytest.param(
        ("actions", 0),
        {"kind": "skip", "target": "B", "condition_on": ["A"]},
        "no 'level'",
        id="target-without-level",
    ),
    pytest.param(("actions", 0), "skip B <- A", "'skip B <- A'",
                 id="action-not-a-mapping"),
    pytest.param(
        ("actions", 0, "condition_on"), 5, "'condition_on'",
        id="condition-on-a-number",
    ),
    pytest.param(
        ("actions", 0, "condition_on"), [1], "'condition_on'",
        id="condition-on-a-number-list",
    ),
]


def spec_with_bad_safs(path, value) -> dict:
    """:data:`FULL_SPEC` with ``spec["safs"]`` set to ``value`` at
    ``path``."""
    spec = yaml.safe_load(FULL_SPEC)
    parent = spec["safs"]
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return spec


class TestSAFs:
    def test_round_trip(self):
        safs = load_saf_spec(FULL_SPEC)
        assert ("Buffer", "A") in safs.formats
        assert safs.storage_safs[0].kind is SAFKind.SKIP
        assert safs.storage_safs[0].target == "B"
        assert safs.compute_safs[0].kind is SAFKind.GATE

    @pytest.mark.parametrize("path,value,needle", BAD_SAF_ENTRIES)
    def test_malformed_entry_names_it(self, path, value, needle):
        with pytest.raises(SpecError, match="safs") as info:
            load_saf_spec(spec_with_bad_safs(path, value))
        assert needle in str(info.value)

    def test_condition_on_string_names_one_tensor(self):
        safs = load_saf_spec(
            spec_with_bad_safs(("actions", 0, "condition_on"), "AB")
        )
        assert safs.storage_safs[0].conditioned_on == ("AB",)
        safs = load_saf_spec(
            spec_with_bad_safs(("actions", 0, "condition_on"), "A")
        )
        assert safs.storage_safs == load_saf_spec(FULL_SPEC).storage_safs

    def test_equal_specs_are_equal(self):
        # The Bitmask rank of the BackingStorage/A format compared by
        # identity once, so two loads of one spec were unequal.
        first, second = load_saf_spec(FULL_SPEC), load_saf_spec(FULL_SPEC)
        assert first == second
        assert spec_digest(first) == spec_digest(second)


class TestMapping:
    def test_round_trip(self):
        mapping = load_mapping(FULL_SPEC)
        assert mapping.levels[0].level == "BackingStorage"
        assert mapping.levels[1].spatial[0].dim == "n"

    def test_keep_sets(self):
        mapping = load_mapping(
            {
                "mapping": [
                    {"level": "L1", "keep": ["A", "Z"]},
                    {"level": "L0"},
                ]
            }
        )
        assert mapping.levels[0].keep == {"A", "Z"}
        assert mapping.levels[1].keep is None

    def test_non_list_rejected(self):
        with pytest.raises(SpecError):
            load_mapping({"mapping": {"level": "L0"}})


class TestEndToEnd:
    def test_full_spec_evaluates(self):
        design, workload = load_design(FULL_SPEC)
        result = Session().evaluate(design, workload)
        assert result.cycles > 0
        assert result.energy_pj > 0
        # Skipping is active: some computes are eliminated.
        assert result.sparse.compute.skipped > 0

    def test_file_loading(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text(FULL_SPEC)
        design, workload = load_design(str(path))
        assert design.name == "fig6-example"


class TestConstraints:
    CONSTRAINED_SPEC = {
        "constraints": {
            "loop_orders": {"Buffer": ["m", "k", "n"]},
            "spatial_dims": {"Buffer": ["n"]},
            "keep": {"Buffer": ["A", "Z"], "BackingStorage": None},
            "fixed_factors": {"BackingStorage": {"m": 4}},
            "max_permutations": 4,
        }
    }

    def test_round_trip(self):
        from repro.io.yaml_spec import load_constraints

        constraints = load_constraints(self.CONSTRAINED_SPEC)
        assert constraints.loop_orders == {"Buffer": ["m", "k", "n"]}
        assert constraints.spatial_dims == {"Buffer": ["n"]}
        assert constraints.keep == {
            "Buffer": {"A", "Z"},
            "BackingStorage": None,
        }
        assert constraints.fixed_factors == {"BackingStorage": {"m": 4}}
        assert constraints.max_permutations == 4

    def test_unknown_option_rejected(self):
        from repro.io.yaml_spec import load_constraints

        with pytest.raises(SpecError):
            load_constraints({"constraints": {"spacial_dims": {}}})

    @pytest.mark.parametrize(
        "section",
        [
            {"fixed_factors": {"DRAM": None}},
            {"max_permutations": None},
            {"loop_orders": {"Buffer": 5}},
            {"keep": {"Buffer": 3}},
        ],
    )
    def test_malformed_values_raise_spec_error(self, section):
        from repro.io.yaml_spec import load_constraints

        with pytest.raises(SpecError):
            load_constraints({"constraints": section})

    @pytest.mark.parametrize(
        "section,needle",
        [
            ({"loop_orders": {"Bufer": ["m", "k", "n"]}}, "Bufer"),
            ({"spatial_dims": {"Bufer": ["n"]}}, "Bufer"),
            ({"keep": {"Bufer": ["A"]}}, "Bufer"),
            ({"fixed_factors": {"Bufer": {"m": 4}}}, "Bufer"),
            ({"spatial_dims": {"Buffer": ["q"]}}, "q"),
            ({"loop_orders": {"Buffer": ["M", "k", "n"]}}, "M"),
            ({"fixed_factors": {"Buffer": {"q": 4}}}, "q"),
            ({"fixed_factors": {"Buffer": {"m": 3}}}, "cannot tile"),
        ],
    )
    def test_unknown_names_fail_at_load_time(self, section, needle):
        """A typo'd level (or spatial dim) in any constraints container
        is a malformed spec: `load_design` cross-checks the constraints
        against this spec's architecture and workload instead of letting
        a later search silently ignore them."""
        import yaml as _yaml

        spec = _yaml.safe_load(FULL_SPEC)
        del spec["mapping"]
        spec["constraints"] = section
        with pytest.raises(SpecError, match=needle):
            load_design(spec)

    def test_design_with_constraints_section(self):
        import yaml as _yaml

        from repro import Session

        spec = _yaml.safe_load(FULL_SPEC)
        del spec["mapping"]
        spec["constraints"] = {"spatial_dims": {"Buffer": ["n"]}}
        design, workload = load_design(spec)
        assert design.mapping is None
        assert design.constraints is not None
        with Session(search_budget=8) as session:
            assert session.search(design, workload).found


class TestSpecHardening:
    def test_non_dict_spec_rejected(self):
        with pytest.raises(SpecError):
            load_design("- a\n- list\n")

    def test_malformed_yaml_rejected(self):
        with pytest.raises(SpecError):
            load_design("arch: [unclosed\n")


#: Malformed ``densities`` sections and the key each error must name.
BAD_DENSITIES = [
    ({"A": "half", "B": 0.6}, "'A'"),
    ([0.25, 0.6], "densities"),
    ({"A": True, "B": 0.6}, "'A'"),
    ({"A": 0.25, "B": None}, "'B'"),
    ({"A": 0.25, "B": [0.6]}, "'B'"),
    ({"A": 0.25, 7: 0.6}, "7"),
    ({"A": 10**400}, "'A'"),
]


class TestDensities:
    """Both loaders share one ``densities`` boundary: a mapping from
    tensor name to an ``int`` or ``float`` that is not a ``bool``."""

    @pytest.mark.parametrize("section,needle", BAD_DENSITIES)
    def test_workload_rejects(self, section, needle):
        spec = yaml.safe_load(FULL_SPEC)
        spec["workload"]["densities"] = section
        with pytest.raises(SpecError, match="densities") as info:
            load_workload(spec)
        assert needle in str(info.value)

    @pytest.mark.parametrize("section,needle", BAD_DENSITIES)
    def test_fused_spec_rejects(self, section, needle):
        spec = yaml.safe_load(FUSED_SPEC)
        spec["densities"] = section
        with pytest.raises(SpecError, match="densities") as info:
            load_fused_spec(spec)
        assert needle in str(info.value)

    def test_integers_and_absent_sections_accepted(self):
        spec = yaml.safe_load(FULL_SPEC)
        spec["workload"]["densities"] = {"A": 1, "B": 0.5}
        workload = load_workload(spec)
        assert workload.density_of("A").density == 1.0
        assert isinstance(workload.density_of("A").density, float)
        spec["workload"]["densities"] = None
        assert load_workload(spec).density_of("B").density == 1.0
        del spec["workload"]["densities"]
        assert load_workload(spec).density_of("B").density == 1.0
