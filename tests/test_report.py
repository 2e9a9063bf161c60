import math

from affinv.report import PropertyRecord


class TestPropertyRecord:
    def test_residual_within_tolerance_passes(self):
        rec = PropertyRecord("p")
        rec.check_residual(0.5, 1.0, {"k": 0})
        rec.check_residual(1.0, 1.0, {"k": 1})
        assert (rec.checked, rec.failures, rec.witness) == (2, 0, None)
        assert rec.worst_residual == 1.0

    def test_nan_residual_fails_with_witness(self):
        rec = PropertyRecord("p")
        rec.check_residual(0.5, 1.0, {"k": 0})
        rec.check_residual(math.nan, 1.0, {"k": 1})
        rec.check_residual(2.0, 1.0, {"k": 2})
        assert (rec.checked, rec.failures) == (3, 2)
        assert rec.witness == {"k": 1}
