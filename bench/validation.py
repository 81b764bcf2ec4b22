"""The paper's Table 6 validation, re-derived for ``dnn-cphc``.

Five designs, each checked against its reference the way the paper
validates Sparseloop: SCNN activity counts and Eyeriss V2 PE latency
against the cycle-level reference simulator on actual random data,
Eyeriss DRAM compression rates against the silicon numbers, DSTC
latency against the ideal density-squared scaling, and STC against
its exact 2x structured-sparsity speedup. :func:`table6_errors`
returns each design's average error in percent; :data:`BANDS` are the
paper's bands, which a correct model stays inside.
"""

from __future__ import annotations

import numpy as np

from repro import Session, Workload, matmul
from repro.common.util import divisors
from repro.dataflow import analyze_dataflow
from repro.designs import dstc, eyeriss, eyeriss_v2, scnn, stc
from repro.designs.common import conv_as_gemm
from repro.micro.latency import compute_latency
from repro.refsim import CycleLevelSimulator
from repro.sparse.density import FixedStructuredDensity, UniformDensity
from repro.sparse.postprocess import analyze_sparse
from repro.tensor.generator import uniform_random_tensor
from repro.workload.einsum import EinsumSpec
from repro.workload.nets import alexnet, mobilenet_v1, network, resnet50

from workloads import ALEXNET_ACT_DENSITY

#: design -> upper bound on its average error (percent); STC is exact.
BANDS = {
    "SCNN": 1.0,
    "Eyeriss V2 PE": 2.0,
    "Eyeriss": 5.0,
    "DSTC": 8.0,
    "STC": 0.0,
}

#: Table 7 silicon compression rates for AlexNet conv1-5 activations.
EYERISS_RATES = {"conv1": 1.2, "conv2": 1.4, "conv3": 1.7, "conv4": 1.9, "conv5": 1.9}


def shrink_dims(spec: EinsumSpec, caps: dict[str, int]) -> EinsumSpec:
    """Clamp each dimension to its largest divisor under the cap, so a
    layer is small enough for cycle-level simulation."""
    dims = {}
    for dim, bound in spec.dims.items():
        cap = caps.get(dim, bound)
        dims[dim] = max(d for d in divisors(bound) if d <= cap)
    return EinsumSpec(f"{spec.name}_small", dims, list(spec.tensors))


def mean_relative_error(pairs: list[tuple[float, float]]) -> float:
    errors = [abs(measured - reference) / reference for reference, measured in pairs if reference]
    return sum(errors) / len(errors) if errors else 0.0


def scnn_error() -> float:
    """SCNN per-component activity (reads, writes, computes) vs the
    cycle-level simulator averaged over two random data seeds."""
    design = scnn.scnn_design()
    spec = shrink_dims(network("vgg16")[7].spec, {"k": 32, "c": 16, "p": 7, "q": 7})
    workload = Workload.uniform(spec, {"I": 0.45, "W": 0.35})
    mapping = design.mapping_for(workload)
    runs = []
    for seed in (3, 11):
        data = {
            "I": uniform_random_tensor(spec.tensor_shape("I"), 0.45, seed=seed),
            "W": uniform_random_tensor(spec.tensor_shape("W"), 0.35, seed=seed + 1),
            "O": np.zeros(spec.tensor_shape("O")),
        }
        runs.append(CycleLevelSimulator(spec, design.arch, mapping, data, design.safs).run())
    sparse = analyze_sparse(analyze_dataflow(workload, design.arch, mapping), design.safs)
    pairs = []
    for table, field in (("reads", "data_reads"), ("writes", "data_writes")):
        keys = sorted({key for run in runs for key in getattr(run, table)})
        for key in keys:
            simulated = sum(getattr(run, table)[key].actual for run in runs) / len(runs)
            if simulated > 0:
                pairs.append((simulated, getattr(sparse.at(*key), field).actual))
    computes = sum(run.computes.actual for run in runs) / len(runs)
    pairs.append((computes, sparse.compute.actual))
    return mean_relative_error(pairs)


def eyeriss_v2_error() -> float:
    """Eyeriss V2 PE total cycles over five MobileNet layers vs the
    cycle-level simulator on actual random data."""
    design = eyeriss_v2.eyeriss_v2_pe_design()
    layers = {layer.name: layer for layer in mobilenet_v1()}
    simulated = modeled = 0.0
    for name in ("pw2", "dw3", "pw3", "pw5", "pw7"):
        spec = shrink_dims(layers[name].spec, {"c": 16, "k": 16, "p": 4, "q": 4})
        seed = sum(ord(ch) for ch in name)
        data = {
            "I": uniform_random_tensor(spec.tensor_shape("I"), 0.55, seed=seed),
            "W": uniform_random_tensor(spec.tensor_shape("W"), 0.40, seed=seed + 1),
            "O": np.zeros(spec.tensor_shape("O")),
        }
        workload = Workload.uniform(spec, {"I": 0.55, "W": 0.40})
        mapping = design.mapping_for(workload)
        simulated += CycleLevelSimulator(
            spec, design.arch, mapping, data, design.safs
        ).run().cycles
        model_workload = Workload(
            spec,
            {
                "I": UniformDensity(0.55, spec.tensor_size("I")),
                "W": UniformDensity(0.40, spec.tensor_size("W")),
            },
        )
        dense = analyze_dataflow(
            model_workload, design.arch, design.mapping_for(model_workload)
        )
        sparse = analyze_sparse(dense, design.safs)
        modeled += compute_latency(design.arch, dense, sparse).cycles
    return abs(modeled - simulated) / simulated


def eyeriss_error() -> float:
    """Eyeriss DRAM compression rates vs the silicon Table 7 rates."""
    session = Session()
    design = eyeriss.eyeriss_design()
    pairs = []
    for layer in alexnet()[:5]:
        workload = Workload.uniform(
            layer.spec, {"I": ALEXNET_ACT_DENSITY[layer.name]}, name=layer.name
        )
        rate = session.evaluate(design, workload).compression_rate("DRAM", "I")
        pairs.append((EYERISS_RATES[layer.name], rate))
    return mean_relative_error(pairs)


def dstc_error() -> float:
    """DSTC normalized latency vs the ideal density^2 scaling in the
    compute-bound region."""
    session = Session()
    dense_cycles = session.evaluate(
        dstc.dense_tensor_core_design(),
        Workload.uniform(matmul(1024, 1024, 1024), {}),
    ).cycles
    errors = []
    for density in (0.9, 0.7, 0.5):
        workload = Workload.uniform(
            matmul(1024, 1024, 1024), {"A": density, "B": density}
        )
        normalized = session.evaluate(dstc.dstc_design(), workload).cycles / dense_cycles
        errors.append(abs(normalized - density**2) / density**2)
    return sum(errors) / len(errors)


def stc_error() -> float:
    """STC with 2:4 structured weights must be exactly 2x faster."""
    session = Session()
    gemm = conv_as_gemm(resnet50()[10])
    workload = Workload(
        gemm,
        {
            "A": FixedStructuredDensity(2, 4),
            "B": UniformDensity(0.65, gemm.tensor_size("B")),
        },
    )
    stc_cycles = session.evaluate(stc.stc_design(), workload).cycles
    dense_cycles = session.evaluate(
        dstc.dense_tensor_core_design(), Workload.uniform(gemm, {"B": 0.65})
    ).cycles
    return abs(dense_cycles / stc_cycles - 2.0) / 2.0


def table6_errors() -> dict[str, float]:
    """Average modeling error per design, in percent."""
    return {
        "SCNN": 100 * scnn_error(),
        "Eyeriss V2 PE": 100 * eyeriss_v2_error(),
        "Eyeriss": 100 * eyeriss_error(),
        "DSTC": 100 * dstc_error(),
        "STC": 100 * stc_error(),
    }


def within_bands(errors: dict[str, float]) -> bool:
    return all(
        errors[name] == 0.0 if bound == 0.0 else errors[name] < bound
        for name, bound in BANDS.items()
    )
