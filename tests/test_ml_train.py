"""The shared training core: the one sigmoid of the numpy learners."""
import numpy as np

from repro.ml.train import sigmoid


def _two_branch(z: np.ndarray) -> np.ndarray:
    """Reference logistic: 1/(1+e^-z) for z >= 0, e^z/(1+e^z) below."""
    out = np.empty_like(z)
    pos = z >= 0
    with np.errstate(under="ignore"):
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.int64)


class TestSigmoid:
    def test_bit_equal_to_two_branch_form(self):
        rng = np.random.default_rng(0)
        z = np.concatenate(
            [
                np.linspace(-800.0, 800.0, 400_001),
                rng.normal(0.0, 5.0, 100_000),
                [0.0, -0.0, 1e-300, -1e-300, 708.5, -708.5, 745.0, -745.0],
            ]
        )
        # the second array has no |z| above 708, where the underflow switch stays off
        for part in (z, z[np.abs(z) <= 700.0]):
            np.testing.assert_array_equal(_bits(sigmoid(part)), _bits(_two_branch(part)))

    def test_no_floating_point_warning_in_the_tails(self):
        big = np.finfo(float).max
        z = np.array([720.0, -720.0, 745.0, -745.0, 746.0, -746.0, 800.0, -800.0])
        z = np.append(z, [big, -big, np.inf, -np.inf])
        with np.errstate(all="raise"):
            p = sigmoid(z)
        np.testing.assert_array_equal(_bits(p), _bits(_two_branch(z)))
        assert np.all(p[::2] == 1.0) and np.all(p[1::2] < 1e-300)
