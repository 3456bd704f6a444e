"""The paper's side inequalities (4.5) and (4.6) and the strongly selective
to frameproof reduction, as checks that only the tests call."""

import math

from fpcodes._util import check_k
from fpcodes.verify import is_frameproof, is_strongly_selective


def _log_core_lhs(k: int) -> float:
    """ln(((k+1)/k)^k (k+1)/k!), the left side of (4.5) and (4.6)."""
    return k * math.log1p(1 / k) + math.log(k + 1) - math.lgamma(k + 1)


def core_inequality_45(k: int) -> bool:
    """Check of ((k+1)/k)^k (k+1)/k! < (k!/(k!-1))^k in log space: the sides'
    logarithms part by 0.17 at k = 2 and 0.09 at k = 3, and from k = 4 on the
    left one is below 0 and the right one at least 0, far beyond the
    rounding error."""
    check_k(k)
    return _log_core_lhs(k) < -k * math.log1p(-math.exp(-math.lgamma(k + 1)))


def core_inequality_46(k: int) -> bool:
    """Check of ((k+1)/k)^k (k+1)/k! < 2^(k+1) in log space: the sides'
    logarithms part by 0.86 at k = 2, and by more as k grows, far more
    than the rounding error."""
    check_k(k)
    return _log_core_lhs(k) < (k + 1) * math.log(2)


def relaxed_inequality_45(k: int) -> bool:
    """Check of (e/k)^k (k+1) < 1 in log space; first true at k = 5."""
    check_k(k)
    return k * (1 - math.log(k)) + math.log(k + 1) < 0


def check_reduction_ss_to_fp(matrix, k: int) -> bool:
    """(k+1)-strong-selectivity forces k-frameproofness on the same matrix.

    Vacuously true when the matrix is not (k+1)-strongly selective.
    """
    if not is_strongly_selective(matrix, k + 1).passed:
        return True
    return is_frameproof(matrix, k).passed
