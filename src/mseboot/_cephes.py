"""``log n!``, the normal CDF and its inverse, bit for bit as scipy gives them.

``scipy.special.gammaln``, ``ndtr`` and ``ndtri`` evaluate the Cephes
routines ``lgam``, ``ndtr`` (with Cephes's own ``erf`` and ``erfc``) and
``ndtri`` in compiled code.  These are the same routines in plain Python:
the same coefficient tables, the same branches, polynomials evaluated in
the Horner order of Cephes's ``polevl`` and ``p1evl``, and ``math.log``,
``math.exp`` and ``math.sqrt``, which call the C library those routines
call (``np.log`` would not: it differs in the last bit on some values).
Every double they return is therefore the one scipy returns; the tests
compare the two with ``==``.  Importing ``scipy.special`` takes about as
long as a whole bootstrap run on the bundled Korea table, and these
three functions are all the default path uses.

``log_factorial`` is ``lgam`` restricted to arguments ``n + 1`` with
integer ``n >= 0``, which is what a Poisson log-likelihood needs; ``erf``
and ``erfc`` keep only the branches ``ndtr`` reaches.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence


def _polevl(x: float, coef: Sequence[float]) -> float:
    """Cephes ``polevl``: coef[0] x^N + ... + coef[N], by Horner's rule."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: Sequence[float]) -> float:
    """Cephes ``p1evl``: ``_polevl`` with an implied leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


# ---------------------------------------------------------------------------
# lgam at integer arguments
# ---------------------------------------------------------------------------

# log(sqrt(2 pi))
_LS2PI = 0.91893853320467274178

# Stirling's correction for 13 <= x < 1000, in 1/x^2
_A = (
    8.11614167470508450300E-4,
    -5.95061904284301438324E-4,
    7.93650340457716943945E-4,
    -2.77777777730099687205E-3,
    8.33333333333331927722E-2,
)

# below 13 lgam is the logarithm of an exact product: log((x - 1)!)
_SMALL = tuple(math.log(float(math.factorial(n))) for n in range(12))


# counts repeat across the resamples of one table, so the values are kept
@lru_cache(maxsize=1 << 12)
def log_factorial(n: int) -> float:
    """``log n!`` as ``scipy.special.gammaln(n + 1)`` gives it, for an
    integer ``n >= 0``."""
    if n < 12:
        if n < 0:
            raise ValueError(f"log_factorial needs n >= 0, got {n}")
        return _SMALL[n]
    x = float(n + 1)
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p
                     - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + _polevl(p, _A) / x


# ---------------------------------------------------------------------------
# ndtr, through Cephes's erf and erfc
# ---------------------------------------------------------------------------

# largest x whose exp(x) is finite
_MAXLOG = 7.09782712893383996843E2
_SQRT1_2 = math.sqrt(0.5)

# erfc(x) = exp(-x^2) P(x) / Q(x) on 1 <= x < 8
_P = (
    2.46196981473530512524E-10,
    5.64189564831068821977E-1,
    7.46321056442269912687E0,
    4.86371970985681366614E1,
    1.96520832956077098242E2,
    5.26445194995477358631E2,
    9.34528527171957607540E2,
    1.02755188689515710272E3,
    5.57535335369399327526E2,
)
_Q = (
    1.32281951154744992508E1,
    8.67072140885989742329E1,
    3.54937778887819891062E2,
    9.75708501743205489753E2,
    1.82390916687909736289E3,
    2.24633760818710981792E3,
    1.65666309194161350182E3,
    5.57535340817727675546E2,
)
# erfc(x) = exp(-x^2) R(x) / S(x) on x >= 8
_R = (
    5.64189583547755073984E-1,
    1.27536670759978104416E0,
    5.01905042251180477414E0,
    6.16021097993053585195E0,
    7.40974269950448939160E0,
    2.97886665372100240670E0,
)
_S = (
    2.26052863220117276590E0,
    9.39603524938001434673E0,
    1.20489539808096656605E1,
    1.70814450747565897222E1,
    9.60896809063285878198E0,
    3.36907645100081516050E0,
)
# erf(x) = x T(x^2) / U(x^2) on |x| <= 1
_T = (
    9.60497373987051638749E0,
    9.00260197203842689217E1,
    2.23200534594684319226E3,
    7.00332514112805075473E3,
    5.55923013010394962768E4,
)
_U = (
    3.35617141647503099647E1,
    5.21357949780152679795E2,
    4.59432382970980127987E3,
    2.26290000613890934246E4,
    4.92673942608635921086E4,
)


def _erf(x: float) -> float:
    """Cephes ``erf`` for |x| <= 1, the only arguments ``ndtr`` gives it."""
    # rounding is symmetric in sign, so this is Cephes's -erf(-x) for x < 0
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _erfc(x: float) -> float:
    """Cephes ``erfc`` for x >= 1, the only arguments ``ndtr`` gives it."""
    z = -x * x
    if z < -_MAXLOG:
        return 0.0
    z = math.exp(z)
    if x < 8.0:
        p = _polevl(x, _P)
        q = _p1evl(x, _Q)
    else:
        p = _polevl(x, _R)
        q = _p1evl(x, _S)
    return (z * p) / q


def ndtr(a: float) -> float:
    """Standard normal CDF, as ``scipy.special.ndtr`` gives it."""
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    # Cephes's erfc(z) is 1 - erf(z) below 1
    y = 0.5 * (1.0 - _erf(z) if z < 1.0 else _erfc(z))
    return 1.0 - y if x > 0 else y


# ---------------------------------------------------------------------------
# ndtri
# ---------------------------------------------------------------------------

# sqrt(2 pi)
_S2PI = 2.50662827463100050242E0
# exp(-2): the central approximation holds for exp(-2) < y < 1 - exp(-2)
_EXPM2 = 0.13533528323661269189

# x / sqrt(2 pi) = y + y^3 P0(y^2) / Q0(y^2) for y = p - 1/2, |y| <= 3/8
_P0 = (
    -5.99633501014107895267E1,
    9.80010754185999661536E1,
    -5.66762857469070293439E1,
    1.39312609387279679503E1,
    -1.23916583867381258016E0,
)
_Q0 = (
    1.95448858338141759834E0,
    4.67627912898881538453E0,
    8.63602421390890590575E1,
    -2.25462687854119370527E2,
    2.00260212380060660359E2,
    -8.20372256168333339912E1,
    1.59056225126211695515E1,
    -1.18331621121330003142E0,
)
# tails, in z = 1 / sqrt(-2 log y): for 2 <= 1/z < 8 ...
_P1 = (
    4.05544892305962419923E0,
    3.15251094599893866154E1,
    5.71628192246421288162E1,
    4.40805073893200834700E1,
    1.46849561928858024014E1,
    2.18663306850790267539E0,
    -1.40256079171354495875E-1,
    -3.50424626827848203418E-2,
    -8.57456785154685413611E-4,
)
_Q1 = (
    1.57799883256466749731E1,
    4.53907635128879210584E1,
    4.13172038254672030440E1,
    1.50425385692907503408E1,
    2.50464946208309415979E0,
    -1.42182922854787788574E-1,
    -3.80806407691578277194E-2,
    -9.33259480895457427372E-4,
)
# ... and for 8 <= 1/z
_P2 = (
    3.23774891776946035970E0,
    6.91522889068984211695E0,
    3.93881025292474443415E0,
    1.33303460815807542389E0,
    2.01485389549179081538E-1,
    1.23716634817820021358E-2,
    3.01581553508235416007E-4,
    2.65806974686737550832E-6,
    6.23974539184983293730E-9,
)
_Q2 = (
    6.02427039364742014255E0,
    3.67983563856160859403E0,
    1.37702099489081330271E0,
    2.16236993594496635890E-1,
    1.34204006088543189037E-2,
    3.28014464682127739104E-4,
    2.89247864745380683936E-6,
    6.79019408009981274425E-9,
)


def ndtri(y0: float) -> float:
    """Inverse of the standard normal CDF, as ``scipy.special.ndtri``
    gives it: -inf at 0, inf at 1, NaN outside [0, 1]."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 < y0 < 1.0:
        return math.nan
    negate = True
    y = y0
    if y > 1.0 - _EXPM2:
        y = 1.0 - y
        negate = False
    if y > _EXPM2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - x1
    return -x if negate else x
