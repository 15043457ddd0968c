"""The one tolerance for batched-vs-scalar parity checks."""

import sys

import numpy as np

#: Relative agreement of a batched route with the scalar one.  numpy's
#: ``exp`` and complex ``*`` and ``/`` may round differently from the
#: scalar path's in the last bit and the differences add up over the
#: series terms; at most 23 eps was measured on the parity inputs of
#: ``test_qcalculus`` and ``test_smoother``.
BATCH_RTOL = 32 * sys.float_info.epsilon


def assert_batch_close(batch, ref) -> None:
    """Element-wise: where ``ref`` is finite, ``batch`` is within
    :data:`BATCH_RTOL` of it; elsewhere (``inf`` for an uncertified
    tail) ``batch`` equals it exactly."""
    batch, ref = np.asarray(batch), np.asarray(ref)
    finite = np.isfinite(ref)
    with np.errstate(invalid="ignore"):
        ok = np.where(finite,
                      np.abs(batch - ref) <= BATCH_RTOL * np.abs(ref),
                      batch == ref)
    bad = np.flatnonzero(~ok)
    assert bad.size == 0, (
        f"{bad.size} element(s) differ, first at {bad[0]}: "
        f"batch {batch.flat[bad[0]]!r}, scalar {ref.flat[bad[0]]!r}")
