"""Qualitative invariants of the prebuilt designs.

Each test pins one of the paper's headline behaviours: gating saves
energy but not time (Eyeriss, bitmask), skipping saves both (SCNN,
coordinate list), STC gets exactly 2x at 2:4, naive STC extensions hit
the SMEM bandwidth wall, and the co-design combinations cross over with
density.
"""

import pytest

from repro import Session, Workload, matmul
from repro.designs import codesign, dstc, eyeriss, eyeriss_v2, scnn, stc, toy
from repro.designs.common import conv_as_gemm, split_factor
from repro.sparse.density import FixedStructuredDensity, UniformDensity
from repro.workload.nets import alexnet, mobilenet_v1, resnet50

ev = Session()


def _mm(density_a, density_b, shape=(256, 256, 256)):
    return Workload.uniform(
        matmul(*shape), {"A": density_a, "B": density_b}
    )


class TestCommonHelpers:
    def test_split_factor_divides(self):
        for bound in (1, 7, 12, 784, 1024):
            outer, inner = split_factor(bound, 16)
            assert outer * inner == bound
            assert inner <= 16

    def test_conv_as_gemm_preserves_macs(self):
        layer = alexnet()[2]
        gemm = conv_as_gemm(layer)
        assert gemm.total_operations == layer.spec.total_operations

    def test_conv_as_gemm_passthrough(self):
        from repro.workload.nets import NetLayer

        layer = NetLayer("fc", matmul(4, 4, 4))
        assert conv_as_gemm(layer) is layer.spec


class TestToyDesigns:
    def test_bitmask_saves_energy_not_time(self):
        wl = _mm(0.2, 0.2)
        dense = ev.evaluate(toy.dense_design(), wl)
        bm = ev.evaluate(toy.bitmask_design(), wl)
        assert bm.cycles == dense.cycles
        assert bm.energy_pj < dense.energy_pj

    def test_coordlist_saves_energy_and_time(self):
        wl = _mm(0.2, 0.2)
        dense = ev.evaluate(toy.dense_design(), wl)
        cl = ev.evaluate(toy.coordinate_list_design(), wl)
        assert cl.cycles < dense.cycles
        assert cl.energy_pj < dense.energy_pj

    def test_fig1_crossover(self):
        """Coordinate list loses its edge as density rises."""
        sparse_wl = _mm(0.1, 0.1)
        dense_wl = _mm(1.0, 1.0)
        cl, bm = toy.coordinate_list_design(), toy.bitmask_design()
        sparse_ratio = (
            ev.evaluate(cl, sparse_wl).energy_pj
            / ev.evaluate(bm, sparse_wl).energy_pj
        )
        dense_ratio = (
            ev.evaluate(cl, dense_wl).energy_pj
            / ev.evaluate(bm, dense_wl).energy_pj
        )
        assert sparse_ratio < 1.0 < dense_ratio


class TestEyeriss:
    def test_gating_keeps_cycles(self):
        layer = alexnet()[2]
        wl = Workload.uniform(layer.spec, {"I": 0.5})
        gated = ev.evaluate(eyeriss.eyeriss_design(), wl)
        dense = ev.evaluate(eyeriss.dense_eyeriss_design(), wl)
        assert gated.cycles == pytest.approx(dense.cycles, rel=0.05)
        assert gated.energy_pj < dense.energy_pj

    def test_rle_compression_rate_reasonable(self):
        layer = alexnet()[0]
        wl = Workload.uniform(layer.spec, {"I": 0.65})
        result = ev.evaluate(eyeriss.eyeriss_design(), wl)
        rate = result.compression_rate("DRAM", "I")
        assert 1.0 < rate < 3.0

    def test_all_alexnet_layers_evaluate(self):
        design = eyeriss.eyeriss_design()
        for layer in alexnet()[:5]:
            wl = Workload.uniform(layer.spec, {"I": 0.6}, name=layer.name)
            result = ev.evaluate(design, wl)
            assert result.cycles > 0


class TestEyerissV2:
    def test_skipping_speeds_up_pe(self):
        layer = mobilenet_v1()[3]
        wl = Workload.uniform(layer.spec, {"I": 0.55, "W": 0.4})
        sparse = ev.evaluate(eyeriss_v2.eyeriss_v2_pe_design(), wl)
        dense = ev.evaluate(eyeriss_v2.dense_pe_design(), wl)
        assert sparse.cycles < dense.cycles

    def test_depthwise_layers_supported(self):
        design = eyeriss_v2.eyeriss_v2_pe_design()
        dw = next(l for l in mobilenet_v1() if l.name.startswith("dw"))
        wl = Workload.uniform(dw.spec, {"I": 0.5, "W": 0.5})
        assert ev.evaluate(design, wl).cycles > 0


class TestSCNN:
    def test_cartesian_product_skips_both_sides(self):
        layer = alexnet()[2]
        wl = Workload.uniform(layer.spec, {"I": 0.4, "W": 0.3})
        result = ev.evaluate(scnn.scnn_design(), wl)
        assert result.actual_computes == pytest.approx(
            layer.spec.total_operations * 0.4 * 0.3, rel=1e-6
        )

    def test_sparse_beats_dense_design(self):
        layer = alexnet()[2]
        wl = Workload.uniform(layer.spec, {"I": 0.4, "W": 0.3})
        sparse = ev.evaluate(scnn.scnn_design(), wl)
        dense = ev.evaluate(scnn.dense_scnn_design(), wl)
        assert sparse.cycles < dense.cycles
        assert sparse.energy_pj < dense.energy_pj


def _tc_workload(weight_model, input_density=0.65):
    layer = resnet50()[10]
    gemm = conv_as_gemm(layer)
    return Workload(
        gemm,
        {
            "A": weight_model,
            "B": UniformDensity(input_density, gemm.tensor_size("B")),
        },
        name=layer.name,
    )


class TestSTC:
    def test_exact_2x_at_2to4(self):
        """Sec 6.3.5: structured sparsity gives a deterministic 2x."""
        wl = _tc_workload(FixedStructuredDensity(2, 4))
        dense_wl = _tc_workload(UniformDensity(1.0, 1))
        stc_r = ev.evaluate(stc.stc_design(), wl)
        dense_r = ev.evaluate(dstc.dense_tensor_core_design(), dense_wl)
        assert dense_r.cycles / stc_r.cycles == pytest.approx(2.0, rel=1e-6)

    def test_flexible_hits_bandwidth_wall(self):
        """Sec 7.1.3: 2:8 should be 4x but SMEM throttles it."""
        wl = _tc_workload(FixedStructuredDensity(2, 8))
        result = ev.evaluate(stc.stc_flexible_design(8), wl)
        assert result.latency.bottleneck == "SMEM"
        dense_r = ev.evaluate(
            dstc.dense_tensor_core_design(), _tc_workload(UniformDensity(1.0, 1))
        )
        speedup = dense_r.cycles / result.cycles
        assert speedup < 3.0  # well short of the theoretical 4x

    def test_dual_compression_recovers_speed(self):
        """Sec 7.1.4: compressing inputs restores most of the speedup."""
        wl = _tc_workload(FixedStructuredDensity(2, 8))
        flexible = ev.evaluate(stc.stc_flexible_design(8), wl)
        dual = ev.evaluate(stc.stc_flexible_rle_dualcompress_design(), wl)
        assert dual.cycles < flexible.cycles
        assert dual.energy_pj < flexible.energy_pj


class TestDSTC:
    def test_exploits_both_sides(self):
        wl = _tc_workload(UniformDensity(0.5, resnet50()[10].spec.total_operations))
        r = ev.evaluate(dstc.dstc_design(), wl)
        dense_r = ev.evaluate(
            dstc.dense_tensor_core_design(), _tc_workload(UniformDensity(1.0, 1))
        )
        # Dual-side skipping: fewer cycles than weight-only 2x.
        assert dense_r.cycles / r.cycles > 2.0

    def test_higher_energy_than_stc_when_dense(self):
        """Fig. 15: DSTC's streaming dataflow costs energy at density 1."""
        dense_wl = _tc_workload(UniformDensity(1.0, 1))
        dstc_r = ev.evaluate(dstc.dstc_design(), dense_wl)
        stc_r = ev.evaluate(stc.stc_design(), dense_wl)
        assert dstc_r.energy_pj > stc_r.energy_pj


class TestCodesign:
    def test_all_combinations_evaluate(self):
        wl = Workload.uniform(matmul(512, 512, 512), {"A": 0.01, "B": 0.01})
        for df, saf in codesign.ALL_COMBINATIONS:
            r = ev.evaluate(codesign.build_design(df, saf), wl)
            assert r.cycles > 0

    def test_hierarchical_helps_streamed_b_when_sparse(self):
        wl = Workload.uniform(matmul(512, 512, 512), {"A": 0.01, "B": 0.01})
        inner = ev.evaluate(
            codesign.build_design("ReuseAZ", "InnermostSkip"), wl
        )
        hier = ev.evaluate(
            codesign.build_design("ReuseAZ", "HierarchicalSkip"), wl
        )
        assert hier.edp < inner.edp

    def test_best_design_depends_on_density(self):
        """The paper's headline: no single best design."""
        def best(density):
            results = {}
            wl = Workload.uniform(
                matmul(1024, 1024, 1024), {"A": density, "B": density}
            )
            for df, saf in codesign.ALL_COMBINATIONS:
                r = ev.evaluate(codesign.build_design(df, saf), wl)
                results[f"{df}.{saf}"] = r.edp
            return min(results, key=results.get)

        assert best(0.3) != best(0.001)

    def test_reuse_abz_hierarchical_never_best(self):
        for density in (1e-4, 1e-2, 0.3):
            wl = Workload.uniform(
                matmul(512, 512, 512), {"A": density, "B": density}
            )
            edps = {}
            for df, saf in codesign.ALL_COMBINATIONS:
                r = ev.evaluate(codesign.build_design(df, saf), wl)
                edps[(df, saf)] = r.edp
            best = min(edps, key=edps.get)
            assert best != ("ReuseABZ", "HierarchicalSkip")
