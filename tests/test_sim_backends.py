"""Tests for the vectorized simulation kernel (repro.aig.simd).

The numpy kernel must be **bit-identical** to the pure-Python one on every
cone and batch width — that is what makes ``sim_backend`` a pure execution
knob (excluded from cache fingerprints, never pinned by the canonical
witness settle).  Cross-checks cover the raw kernels, the
:class:`PatternSet` dispatch layer, signature extraction, assignment
minimization, incremental AIG growth, the ``auto`` resolution policy, and
end-to-end normalized-report equality.
"""

import gc
import random
import weakref

import pytest

from repro.aig import simd
from repro.aig.aig import AIG
from repro.aig.simvec import (
    PatternSet,
    SIM_BACKENDS,
    minimize_assignment,
    node_signatures,
    resolve_sim_backend,
)
from repro.exec import normalized_report_dict

from test_preprocess import _audit, _random_cone

numpy_only = pytest.mark.skipif(
    not simd.numpy_available(), reason="numpy is not installed"
)


def _random_words(rng, aig, roots, num_patterns):
    words = {}
    for node in aig.cone_nodes(roots):
        if aig.is_input(node):
            words[node] = rng.getrandbits(num_patterns)
    return words


@numpy_only
class TestKernelBitIdentity:
    # Widths straddle the limb size (64) and the auto threshold (256), and
    # include deliberately unaligned pattern counts (top-limb spill masking).
    @pytest.mark.parametrize("num_patterns", [1, 63, 64, 65, 256, 1000])
    def test_word_values_match_python_kernel(self, num_patterns):
        rng = random.Random(num_patterns)
        for trial in range(8):
            aig, root = _random_cone(rng, num_inputs=5, num_gates=30)
            mask = (1 << num_patterns) - 1
            words = _random_words(rng, aig, [root], num_patterns)
            expected = aig.evaluate_word_values([root], words, mask)
            actual = simd.evaluate_word_values_numpy(aig, [root], words, mask)
            assert actual == expected

    def test_root_words_match_python_kernel_with_complements(self):
        rng = random.Random(7)
        num_patterns = 300
        mask = (1 << num_patterns) - 1
        aig, root = _random_cone(rng, num_inputs=6, num_gates=40)
        roots = [root, root ^ 1]  # both polarities of the same node
        words = _random_words(rng, aig, roots, num_patterns)
        expected = aig.evaluate_words(roots, words, mask)
        actual = simd.evaluate_words_numpy(aig, roots, words, mask)
        assert actual == expected
        # Complement parity: the two polarities XOR to the full mask.
        assert actual[0] ^ actual[1] == mask

    def test_evaluator_extends_over_a_growing_aig(self):
        rng = random.Random(11)
        aig, root = _random_cone(rng, num_inputs=4, num_gates=15)
        num_patterns = 128
        mask = (1 << num_patterns) - 1
        words = _random_words(rng, aig, [root], num_patterns)
        first = simd.evaluate_words_numpy(aig, [root], words, mask)
        assert first == aig.evaluate_words([root], words, mask)
        # Grow the same AIG; the cached evaluator must pick up new nodes.
        aig2, root2 = _random_cone(rng, aig=aig, num_inputs=0, num_gates=25)
        assert aig2 is aig
        words = _random_words(rng, aig, [root, root2], num_patterns)
        expected = aig.evaluate_words([root, root2], words, mask)
        assert simd.evaluate_words_numpy(aig, [root, root2], words, mask) == expected

    def test_cached_evaluator_does_not_keep_its_aig_alive(self):
        aig, root = _random_cone(random.Random(5), num_inputs=4, num_gates=10)
        simd.evaluate_words_numpy(aig, [root], {}, (1 << 300) - 1)
        reference = weakref.ref(aig)
        del aig
        gc.collect()
        assert reference() is None

    def test_constant_and_input_roots(self):
        aig = AIG()
        i0 = aig.add_input("i0")
        num_patterns = 200
        mask = (1 << num_patterns) - 1
        word = random.Random(3).getrandbits(num_patterns)
        words = {i0 >> 1: word}
        # FALSE literal (0), TRUE literal (1), plain input, inverted input.
        roots = [0, 1, i0, i0 ^ 1]
        assert simd.evaluate_words_numpy(aig, roots, words, mask) == (
            aig.evaluate_words(roots, words, mask)
        )


@numpy_only
class TestDispatchLayerParity:
    def test_pattern_set_words_are_kernel_independent(self):
        for num_patterns in (64, 512):
            rng = random.Random(num_patterns)
            aig, root = _random_cone(rng, num_inputs=6, num_gates=40)
            by_kernel = {}
            for backend in ("python", "numpy"):
                patterns = PatternSet(num_patterns, sim_backend=backend)
                by_kernel[backend] = (
                    patterns.evaluate(aig, [root]),
                    node_signatures(aig, [root], patterns),
                )
            assert by_kernel["python"] == by_kernel["numpy"]

    def test_minimize_assignment_is_kernel_independent(self):
        rng = random.Random(23)
        aig, root = _random_cone(rng, num_inputs=8, num_gates=50)
        patterns = PatternSet(64, sim_backend="python")
        index = None
        for goal in (root, root ^ 1):
            words = patterns.evaluate(aig, [goal])
            if words[0]:
                index = (words[0] & -words[0]).bit_length() - 1
                break
        assert index is not None
        assignment = patterns.extract(aig, [goal], index)
        minimized = {
            backend: minimize_assignment(aig, [goal], assignment, sim_backend=backend)
            for backend in ("python", "numpy")
        }
        assert minimized["python"] == minimized["numpy"]


class TestBackendResolution:
    def test_policy(self):
        if not simd.numpy_available():
            for name in SIM_BACKENDS:
                assert resolve_sim_backend(name, 10_000) == "python"
            return
        assert resolve_sim_backend("python", 10_000) == "python"
        assert resolve_sim_backend("numpy", 1) == "numpy"
        threshold = simd.NUMPY_MIN_PATTERNS
        assert resolve_sim_backend("auto", threshold - 1) == "python"
        assert resolve_sim_backend("auto", threshold) == "numpy"

    def test_unknown_backend_is_rejected_by_config(self):
        from repro.core.config import DetectionConfig
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="sim backend"):
            DetectionConfig(sim_backend="fortran")


@numpy_only
class TestReportEquivalence:
    """The kernel knob must not change one byte of any report."""

    @pytest.mark.parametrize(
        "bench_name", ["RS232-T2400", "RS232-HT-FREE", "RS232-SEQ-T3000"]
    )
    def test_forced_kernels_produce_identical_reports(self, bench_name):
        python_report = _audit(bench_name, sim_backend="python")
        numpy_report = _audit(bench_name, sim_backend="numpy")
        assert normalized_report_dict(python_report.to_dict()) == (
            normalized_report_dict(numpy_report.to_dict())
        )
        if python_report.counterexample is not None:
            assert (
                python_report.counterexample.values
                == numpy_report.counterexample.values
            )

    def test_wide_batches_agree_across_kernels(self):
        # 512 patterns puts auto mode on the numpy path; the python run
        # must still produce the identical report.
        wide_python = _audit("RS232-T2400", sim_patterns=512, sim_backend="python")
        wide_auto = _audit("RS232-T2400", sim_patterns=512, sim_backend="auto")
        assert normalized_report_dict(wide_python.to_dict()) == (
            normalized_report_dict(wide_auto.to_dict())
        )
