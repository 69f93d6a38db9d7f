"""The two sides of the fundamental theorem of asset pricing, as oracles.

On a finite state space the attainable terminal wealths form a linear
subspace K spanned by the one-step gain generators, so "no free lunch"
collapses to the Stiemke alternative: either some nonzero nonnegative
vector lies in K (a free-lunch strategy), or some strictly positive
measure annihilates K (an equivalent martingale measure for every trading
filtration of the index system). LP duality proves the alternative from
one LP (Goldman and Tucker, "Theory of linear programming", 1956): the
free-lunch LP's optimum is a free lunch when it is positive, and its
duals are a martingale measure when it is zero. So check_naflp solves at
most one LP per call:

- the free-lunch LP when a generator whose changes share one sign
  already is a free lunch;
- none when the projection of the uniform weights onto the orthogonal
  complement of K is strictly positive. That projection is Schweizer's
  variance-optimal signed martingale measure ("Approximation pricing and
  the variance-optimal martingale measure", Ann. Probab. 24(1), 1996)
  for uniform reference weights, and is uniform when every generator's
  changes sum to zero;
- else the free-lunch LP, which certifies either side.

An LP that proves neither side is a solver bug and raises.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Mapping

from . import lp
from .frozen import Frozen
from .markets import GainGenerator, Market, Strategy, gain_generators, validate_strategy
from .rationals import Rational, ZERO, format_rational, int_multiple


class OracleDisagreementError(RuntimeError):
    """The free-lunch LP proved neither side: an internal inconsistency."""


class FreeLunchCertificate(Frozen):
    """A simple strategy whose terminal wealth is nonnegative and not zero."""

    _fields = ("strategy", "terminal_wealth")

    def __init__(self, strategy: Strategy, terminal_wealth: tuple[Rational, ...]):
        self.__dict__.update(strategy=strategy, terminal_wealth=terminal_wealth)


class MartingaleMeasureCertificate(Frozen):
    """A strictly positive measure making every traded asset a martingale
    for the trading filtration of every index set."""

    _fields = ("q",)

    def __init__(self, q: Mapping[str, Rational]):
        self.__dict__.update(q=q)

    def vector(self, states: tuple[str, ...]) -> tuple[Rational, ...]:
        return tuple(self.q[s] for s in states)


class FreeLunch(Frozen):
    _fields = ("certificate",)

    def __init__(self, certificate: FreeLunchCertificate):
        self.__dict__.update(certificate=certificate)

    @property
    def kind(self) -> str:
        return "free-lunch"


class NoFreeLunch(Frozen):
    _fields = ("certificate",)

    def __init__(self, certificate: MartingaleMeasureCertificate):
        self.__dict__.update(certificate=certificate)

    @property
    def kind(self) -> str:
        return "no-free-lunch"


Verdict = FreeLunch | NoFreeLunch


def find_free_lunch(m: Market, gens: list[GainGenerator]) -> FreeLunchCertificate | MartingaleMeasureCertificate:
    """The certificate the free-lunch LP proves: a free lunch in the span
    of the gain generators, or a martingale measure from the LP's duals.

    Maximizes the total mass of v = sum_j coeff_j * generator_j subject to
    -v <= 0 (duals w >= 0) and v <= 1 (duals u >= 0) per state; a positive
    optimum yields a certificate whose strategy is rebuilt from the active
    generators. At a zero optimum strong duality gives 1 . u = 0, so u = 0,
    and the dual constraint of each generator's column pair reads
    sum_w (1 + w_w) * delta_w = 0: q = 1 + w, normalized, is a strictly
    positive measure annihilating every generator. With no generator
    K = {0}, and the uniform measure is returned without an LP.

    Each free coefficient is the difference of an adjacent pair of
    nonnegative LP columns (2j, 2j + 1). The rows are built from the
    generators' int deltas (price changes times the market's price_scale
    D), each divided by c_j, the gcd of generator j's deltas, so no column
    carries a common factor such as D into the tableau: state w's rows
    -v_w <= 0 and v_w <= 1 hold (-d, d) and (d, -d) on the pair of each
    generator j whose delta at w is c_j * d, and no other entry, so
    (x[2j] - x[2j + 1]) / c_j is coefficient j / D. A positive column
    scale keeps every Bland choice and ratio-test winner, so it changes no
    pivot. Every row, right-hand side and objective entry is an int, so
    the LP takes the rows as they are. The free-lunch certificate is
    assembled on ints too.
    The two columns of a pair are each other's negatives, so no basis
    holds both and at most one is nonzero: its value n / d gives the unit
    coefficient n / (d * c_j), reduced by gcd(n, c_j). The unit
    coefficients are u_j / L for ints u_j and the lcm L of those
    denominators, and each nonzero entry becomes one rational at the end.

    Raises OracleDisagreementError when the LP ends other than optimal or
    a zero optimum has a nonzero dual on a v <= 1 row.
    """
    if not gens:
        return find_martingale_measure(m, gens)
    n_states = len(m.space.states)
    lower: list[list] = [[] for _ in range(n_states)]
    upper: list[list] = [[] for _ in range(n_states)]
    objective = []
    scales = []
    for j, g in enumerate(gens):
        c = gcd(*(d for _, d in g.deltas))
        scales.append(c)
        total = 0
        for w, d in g.deltas:
            d //= c
            nd = -d
            lower[w] += ((2 * j, nd), (2 * j + 1, d))
            upper[w] += ((2 * j, d), (2 * j + 1, nd))
            total += d
        if total:
            objective += ((2 * j, total), (2 * j + 1, -total))
    problem = lp.LpProblem(
        num_vars=2 * len(gens),
        objective=tuple(objective),
        inequalities=tuple((tuple(row), 0) for row in lower) + tuple((tuple(row), 1) for row in upper),
    )
    outcome = lp.solve(problem)
    if outcome.status != lp.OPTIMAL:
        raise OracleDisagreementError(f"free-lunch search ended {outcome.status}; the claim box is compact")
    if outcome.objective == 0:
        if any(outcome.duals[n_states:]):
            raise OracleDisagreementError("oracles disagree: zero free-lunch optimum with a nonzero v <= 1 dual")
        q = [1 + w for w in outcome.duals[:n_states]]
        total = sum(q)
        return MartingaleMeasureCertificate(dict(zip(m.space.states, (v / total for v in q))))
    x = outcome.solution
    ratios = []
    for j, c in enumerate(scales):
        n, d = (x[2 * j] or -x[2 * j + 1]).as_integer_ratio()
        g = gcd(n, c)
        ratios.append((n // g, d * (c // g)))
    scale = lcm(*(d for _, d in ratios))
    units = [n * (scale // d) for n, d in ratios]
    terminal = [0] * n_states
    for u, g in zip(units, gens):
        if u:
            for w, d in g.deltas:
                terminal[w] += u * d
    strategy = _strategy_from_active(m, gens, units, scale)
    return FreeLunchCertificate(strategy=strategy, terminal_wealth=tuple(_as_rationals(terminal, 1, scale)))


def _as_rationals(values: list[int], factor: int, scale: int) -> list[Rational]:
    """factor * v / scale per int v, one shared Rational per distinct v
    and ZERO for each zero."""
    shared = {v: Rational(factor * v, scale) if v else ZERO for v in set(values)}
    return [shared[v] for v in values]


def _strategy_from_active(m: Market, gens: list[GainGenerator], units: list[int], scale: int) -> Strategy:
    """One simple strategy reproducing sum_j c_j * generator_j, where
    c_j = D * units_j / scale for the market's price_scale D (the
    generators' deltas are in units of 1/D).

    Active generators are grouped per step; holdings add c_j on the
    generator's atom, summed on ints as units_j. The carrying index set
    is the union of the active generators' index sets, which the refining
    property keeps inside the index system, and whose filtration dominates
    each participant's.
    """
    active = [(u, g) for u, g in zip(units, gens) if u]
    if not active:
        raise ValueError("no active generators to build a strategy from")
    index_set = frozenset().union(*(g.index_set for _, g in active))
    if index_set not in set(m.index_system):
        raise OracleDisagreementError(
            f"union {sorted(index_set)} of active index sets escaped the index system"
        )
    idx = m.space.state_index
    n_states = len(m.space.states)
    steps = sorted({g.step for _, g in active})
    t_lo, t_hi = steps[0], steps[-1] + 1
    dates = tuple(range(t_lo, t_hi + 1))
    holdings = []
    for t in dates[:-1]:
        acc: dict[str, list[int]] = {}
        for u, g in active:
            if g.step != t:
                continue
            vec = acc.setdefault(g.asset, [0] * n_states)
            for s in g.atom:
                vec[idx[s]] += u
        holdings.append({a: tuple(_as_rationals(v, m.price_scale, scale)) for a, v in acc.items()})
    return Strategy(index_set=index_set, dates=dates, holdings=tuple(holdings))


def find_martingale_measure(m: Market, gens: list[GainGenerator]) -> MartingaleMeasureCertificate | None:
    """The projected martingale measure, when it is strictly positive, or None.

    The candidate is p = 1 - P_K 1, the projection of the uniform weights
    onto the orthogonal complement of the generator span K: Schweizer's
    variance-optimal signed martingale measure (Ann. Probab. 24(1), 1996)
    for uniform reference weights. p annihilates every generator by
    construction, so q = p / sum(p) is returned when every p_w is
    positive. When every generator's changes sum to zero, 1 is orthogonal
    to K, p = 1 and q is uniform, with no elimination; else _projection
    eliminates once. None says only that the projection does not certify;
    the free-lunch LP decides then. Orthogonality to consecutive-step
    generators gives the martingale property for all date pairs by the
    tower property.
    """
    n_states = len(m.space.states)
    if any(sum(d for _, d in g.deltas) for g in gens):
        p = _projection(gens, n_states)
        if min(p) <= 0:
            return None
    else:
        p = [1] * n_states
    return MartingaleMeasureCertificate(dict(zip(m.space.states, _as_rationals(p, 1, sum(p)))))


def _projection(gens: list[GainGenerator], n_states: int) -> list[int]:
    """A positive int multiple of p = 1 - P_K 1, K the span of the deltas G of gens.

    P_K 1 = G^T y for every solution y of G G^T y = G 1, built sparse per
    state from its (generator, delta) pairs, so only generators sharing a
    state meet; G 1 is column r for r generators, and zeros are dropped.
    The system is consistent, maybe singular: lp.row_basis solves it with
    each free unknown at 0, each reduced row leading with (i, a_i), a_i > 0,
    and ending with (r, c_i) when y_i = c_i / a_i is nonzero. With L the
    lcm of the a_i, L * p = L * 1 - sum_i (L * y_i) * G_i holds only ints.
    """
    r = len(gens)
    at: list[list[tuple[int, int]]] = [[] for _ in range(n_states)]
    normal = [{r: sum(d for _, d in g.deltas)} for g in gens]
    for i, g in enumerate(gens):
        for w, d in g.deltas:
            at[w].append((i, d))
    for pairs in at:
        for i, a in pairs:
            row = normal[i]
            for k, b in pairs:
                row[k] = row.get(k, 0) + a * b
    solved = lp.row_basis([tuple(sorted((k, v) for k, v in row.items() if v)) for row in normal])
    scale = lcm(*(row[0][1] for row in solved))
    p = [scale] * n_states
    for row in solved:
        (i, a), (k, c) = row[0], row[-1]
        if k == r:
            y = c * (scale // a)
            for w, d in gens[i].deltas:
                p[w] -= y * d
    return p


def check_naflp(m: Market, horizon: int | None = None) -> Verdict:
    """Decide for m.at_horizon(horizon) from one generator set, after one pass over it:

    - the free-lunch LP alone if some generator's changes all share one
      sign: that generator (or its negative) is a free lunch in the span,
      so no strictly positive measure annihilates it and the projection
      could not certify;
    - else find_martingale_measure, whose projected measure (Schweizer
      1996) certifies without an LP wherever it is strictly positive, the
      uniform measure included, and the free-lunch LP, which certifies
      either side, only when it does not.
    """
    m = m.at_horizon(horizon)
    gens = gain_generators(m)
    for g in gens:
        changes = [d for _, d in g.deltas]
        if min(changes) > 0 or max(changes) < 0:
            break
    else:
        measure = find_martingale_measure(m, gens)
        if measure is not None:
            return NoFreeLunch(measure)
    cert = find_free_lunch(m, gens)
    return FreeLunch(cert) if isinstance(cert, FreeLunchCertificate) else NoFreeLunch(cert)


def verify_certificate(m: Market, v: Verdict) -> bool:
    """Re-check a verdict's certificate on m from scratch, on independent code paths.

    A measure is verified by comparing q-weighted atom sums of every
    asset over every date pair of every trading filtration, in integers
    (see _verify_measure), a strategy by replaying its terminal wealth in
    integers (see terminal_wealth) and comparing it with the claimed one;
    nothing from the LP layer is reused.
    """
    if isinstance(v, NoFreeLunch):
        return _verify_measure(m, v.certificate)
    if isinstance(v, FreeLunch):
        return _verify_strategy(m, v.certificate)
    return False


def _verify_measure(m: Market, cert: MartingaleMeasureCertificate) -> bool:
    """True iff the weights are a strictly positive probability vector
    under which every asset of every index set is a martingale for that
    set's trading filtration over 0..m.space.horizon.

    For each t, each atom A of F_t and each later u it requires
    sum_A q * S_u == sum_A q * S_t, on Python ints: the weights are
    scaled by the lcm L of their denominators and each asset's rows
    0..horizon by the lcm D of theirs. This is exact and equivalent to
    E_q[S_u | A] == E_q[S_t | A]: each side of that equation is its atom
    sum divided by q(A) > 0, and the ints multiply both sums by the same
    positive L * D. The pair u == t holds trivially and is skipped.
    """
    states = m.space.states
    if set(cert.q) != set(states):
        return False
    weights = cert.vector(states)
    if any(w <= 0 for w in weights):
        return False
    q, scale = int_multiple(weights)
    if sum(q) != scale:
        return False
    n_states, horizon = len(states), m.space.horizon
    idx = m.space.state_index
    weighted: dict[str, list[list[int]]] = {}
    for index_set in m.index_system:
        filtration = m.trading_filtrations[index_set]
        atoms = [[[idx[s] for s in atom] for atom in filtration.at(t).atoms] for t in range(horizon + 1)]
        for asset in sorted(index_set):
            rows = weighted.get(asset)
            if rows is None:
                prices = int_multiple(v for row in m.assets[asset][:horizon + 1] for v in row)[0]
                rows = weighted[asset] = [
                    [w * p for w, p in zip(q, prices[t * n_states:(t + 1) * n_states])]
                    for t in range(horizon + 1)
                ]
            for t, row in enumerate(rows):
                for atom in atoms[t]:
                    now = sum(row[k] for k in atom)
                    for later in rows[t + 1:]:
                        if sum(later[k] for k in atom) != now:
                            return False
    return True


def _verify_strategy(m: Market, cert: FreeLunchCertificate) -> bool:
    terminal = cert.terminal_wealth
    if len(terminal) != len(m.space.states):
        return False
    if any(v < 0 for v in terminal) or all(v == 0 for v in terminal):
        return False
    try:
        return terminal_wealth(m, cert.strategy) == tuple(terminal)
    except ValueError:
        return False


def terminal_wealth(m: Market, s: Strategy) -> tuple[Rational, ...]:
    """Exact terminal wealth of a simple strategy: per state w, the sum over
    its intervals (t_prev, t_next] and traded assets of
    holding(w) * (price(t_next, w) - price(t_prev, w)); wealth starts at
    zero and stays put after the last date.

    Raises ValueError for a strategy validate_strategy rejects. The replay
    runs on Python ints: the holdings are scaled by the lcm H of their
    denominators and the traded assets' prices at the strategy's dates,
    read from m.assets alone, by the lcm P of theirs; each nonzero entry
    is its int sum divided by H * P.
    """
    problems = validate_strategy(m, s)
    if problems:
        raise ValueError("invalid strategy: " + "; ".join(problems))
    n_states = len(m.space.states)
    flat, h_scale = int_multiple(v for h in s.holdings for vec in h.values() for v in vec)
    vectors = _state_rows(flat, n_states)
    traded = sorted({aid for h in s.holdings for aid in h})
    flat, p_scale = int_multiple(v for aid in traded for t in s.dates for v in m.assets[aid][t])
    rows = _state_rows(flat, n_states)
    prices = {aid: [next(rows) for _ in s.dates] for aid in traded}
    total = [0] * n_states
    for i, h in enumerate(s.holdings):
        for aid in h:
            vec, now, then = next(vectors), prices[aid][i + 1], prices[aid][i]
            for k in range(n_states):
                total[k] += vec[k] * (now[k] - then[k])
    return tuple(_as_rationals(total, 1, h_scale * p_scale))


def _state_rows(flat: list[int], n_states: int):
    """The consecutive n_states-long rows of a flat list, in order."""
    return (flat[k:k + n_states] for k in range(0, len(flat), n_states))


def render_verdict(v: Verdict, states: tuple[str, ...]) -> str:
    """Canonical text form of a verdict, exact rationals, stable ordering."""
    lines = [f"verdict: {v.kind}", "format: 1"]
    if isinstance(v, NoFreeLunch):
        lines.append("measure:")
        for s in states:
            lines.append(f"  {s}: {format_rational(v.certificate.q[s])}")
    else:
        cert = v.certificate
        strat = cert.strategy
        lines.append(f"index set: {','.join(sorted(strat.index_set))}")
        lines.append(f"dates: {','.join(str(t) for t in strat.dates)}")
        for i, h in enumerate(strat.holdings):
            lines.append(f"interval ({strat.dates[i]},{strat.dates[i + 1]}]:")
            for asset in sorted(h):
                values = " ".join(format_rational(x) for x in h[asset])
                lines.append(f"  {asset}: {values}")
        values = " ".join(format_rational(x) for x in cert.terminal_wealth)
        lines.append(f"terminal wealth: {values}")
    return "\n".join(lines) + "\n"
