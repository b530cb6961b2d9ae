"""Builders for the two families of worked instances.

* Lie pairs (L, A): A a subalgebra of L, B = L/A the Bott module.  The
  Chevalley-Eilenberg algebra of A together with the splitting-dependent
  derivation delta_j: CE(A) -> C(A, B^) generates the bracket tower on
  C(A, B[1]).

* Linear-map objects psi: E -> g with psi equivariant: here A = CE(g),
  Omega = C(g, E^) with the dual basis in degree +1, delta = psi^, and
  the tower degenerates to R_1, R_2 with R_2(e1, e2) = -psi(e1).e2.
"""

from __future__ import annotations

from .algebra import AlgebraElement, CdgaPresentation, LieAlgebraData, ce_algebra
from .connections import DeltaConnection, extend_connection
from .derivations import DerivationHomotopy, DgDerivation, homotopy_offset
from .graded import GradedBasis, exact
from .modules import DgModule, ModuleElement, dual_module


def _as_fraction_dict(d):
    """``d`` with its values normalised by :func:`exact`, zeros dropped."""
    out = {k: exact(v) for k, v in d.items()}
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# Lie pairs

class LiePair:
    """A subalgebra A inside L, with the quotient B = L/A.

    ``sub_indices`` selects the basis of A inside L; the remaining basis
    vectors represent B.  A splitting j: B -> L is recorded against the
    vector-space splitting j0 (b |-> its representative basis vector) as
    j(b) = j0(b) + sum_a s[b][a] x_a with coefficients in A.
    """

    def __init__(self, ambient: LieAlgebraData, sub_indices: list[int],
                 label: str = ""):
        self.ambient = ambient
        self.sub_indices = list(sub_indices)
        self.quot_indices = [i for i in range(len(ambient.names))
                             if i not in self.sub_indices]
        self.label = label
        bad = self.closure_failures()
        if bad:
            raise ValueError("; ".join(bad))

    def closure_failures(self) -> list[str]:
        out = []
        sub = set(self.sub_indices)
        for a in self.sub_indices:
            for b in self.sub_indices:
                for k, c in self.ambient.bracket(a, b).items():
                    if c and k not in sub:
                        out.append(
                            f"[{self.ambient.names[a]}, "
                            f"{self.ambient.names[b]}] leaves the subalgebra")
        return out

    def sub_lie(self) -> LieAlgebraData:
        names = [self.ambient.names[i] for i in self.sub_indices]
        pos = {g: t for t, g in enumerate(self.sub_indices)}
        brackets: dict[tuple[int, int], dict[int, Scalar]] = {}
        for t, a in enumerate(self.sub_indices):
            for u, b in enumerate(self.sub_indices):
                if t < u:
                    val = {pos[k]: c for k, c in self.ambient.bracket(a, b).items() if c}
                    if val:
                        brackets[(t, u)] = val
        return LieAlgebraData(names, brackets)

    def bott_action(self, a_idx: int, b_pos: int) -> dict[int, Scalar]:
        """pr_B [x_a, j0(b)] in coordinates of the quotient basis."""
        b_idx = self.quot_indices[b_pos]
        out: dict[int, Scalar] = {}
        for k, c in self.ambient.bracket(a_idx, b_idx).items():
            if k in self.quot_indices and c:
                out[self.quot_indices.index(k)] = c
        return out

    def quotient_names(self) -> list[str]:
        return [self.ambient.names[i] + "~" for i in self.quot_indices]


class PairSetup:
    """Everything :func:`lie_pair_setup` builds for one splitting."""

    def __init__(self, pair: LiePair, algebra: CdgaPresentation,
                 omega: DgModule, delta: DgDerivation, bmod: DgModule,
                 connection: DeltaConnection, splitting: dict | None = None):
        self.pair = pair
        self.algebra = algebra
        self.omega = omega
        self.delta = delta
        self.bmod = bmod
        self.connection = connection
        self.splitting = {} if splitting is None else splitting


def lie_pair_setup(pair: LiePair, splitting: dict | None = None,
                   label: str = "") -> PairSetup:
    """CE(A), Omega = C(A, B^), delta_j and the canonical connection.

    ``splitting`` maps a quotient position to {sub position: coefficient},
    describing j = j0 + s.  delta for j0 is

        delta(xi^a) = sum_{c, b} <xi^a, pr_A [j0(b), x_c]> xi^c . b^

    and a nonzero s shifts it by the homotopy h = (j0 - j)^.
    """
    algebra = ce_algebra(pair.sub_lie())
    n_sub = len(pair.sub_indices)
    n_quot = len(pair.quot_indices)
    qnames = pair.quotient_names()
    # Omega = C(A, B^): dual Bott action, d(b_i^) = -sum_{a,j} c^a_{ji} xi^a b_j^
    diff: dict[tuple[int, int], AlgebraElement] = {}
    for t in range(n_sub):
        a_idx = pair.sub_indices[t]
        for j in range(n_quot):
            for i, c in pair.bott_action(a_idx, j).items():
                cur = diff.get((i, j), AlgebraElement())
                cur = cur + AlgebraElement.monomial((t,), -c)
                if cur.is_zero():
                    diff.pop((i, j), None)
                else:
                    diff[(i, j)] = cur
    omega = DgModule(algebra, GradedBasis([n + "^" for n in qnames],
                                          [0] * n_quot), diff,
                     label=f"Omega({label or pair.label})")
    # delta for the vector-space splitting j0
    values: dict[int, ModuleElement] = {}
    for t in range(n_sub):
        acc: dict[int, AlgebraElement] = {}
        for c in range(n_sub):
            for b in range(n_quot):
                br = pair.ambient.bracket(pair.quot_indices[b],
                                          pair.sub_indices[c])
                coeff = br.get(pair.sub_indices[t], 0)
                if coeff:
                    cur = acc.get(b, AlgebraElement())
                    cur = cur + AlgebraElement.monomial((c,), coeff)
                    if cur.is_zero():
                        acc.pop(b, None)
                    else:
                        acc[b] = cur
        if acc:
            values[t] = ModuleElement(omega, acc)
    delta = DgDerivation(algebra, omega, values,
                         label=f"delta({label or pair.label})")
    if splitting:
        h_values: dict[int, ModuleElement] = {}
        for b_pos, coeffs in splitting.items():
            for a_pos, c in _as_fraction_dict(coeffs).items():
                cur = h_values.get(a_pos, omega.zero())
                h_values[a_pos] = cur + ModuleElement(
                    omega, {b_pos: AlgebraElement.scalar(-c)})
        h = DerivationHomotopy(algebra, omega, h_values)
        delta = homotopy_offset(delta, h)
        delta.label = f"delta_j({label or pair.label})"
    bmod = dual_module(omega, name_fn=lambda n: n.rstrip("^"))
    conn = extend_connection(delta, bmod, label="canonical")
    return PairSetup(pair, algebra, omega, delta, bmod, conn,
                     splitting=splitting or {})


class OffsetMismatch(ValueError):
    """A computed homotopy that does not carry delta to delta'; the
    homotopy itself is kept in ``homotopy``."""

    def __init__(self, message: str, homotopy: DerivationHomotopy):
        super().__init__(message)
        self.homotopy = homotopy


def splitting_homotopy(setup_from: PairSetup, setup_to: PairSetup) -> DerivationHomotopy:
    """The homotopy h = (j - j')^ carrying one splitting's delta to the
    other's; verified against homotopy_offset before returning (raises
    OffsetMismatch if it does not match)."""
    same_pair = (setup_from.pair is setup_to.pair
                 or (setup_from.pair.ambient.names
                     == setup_to.pair.ambient.names
                     and setup_from.pair.ambient.brackets
                     == setup_to.pair.ambient.brackets
                     and setup_from.pair.sub_indices
                     == setup_to.pair.sub_indices))
    if not same_pair:
        raise ValueError("setups must come from the same Lie pair")
    omega = setup_from.omega
    h_values: dict[int, ModuleElement] = {}
    for b_pos in range(omega.rank):
        s_from = _as_fraction_dict(setup_from.splitting.get(b_pos, {}))
        s_to = _as_fraction_dict(setup_to.splitting.get(b_pos, {}))
        for a_pos in set(s_from) | set(s_to):
            c = s_from.get(a_pos, 0) - s_to.get(a_pos, 0)
            if c:
                cur = h_values.get(a_pos, omega.zero())
                h_values[a_pos] = cur + ModuleElement(
                    omega, {b_pos: AlgebraElement.scalar(c)})
    h = DerivationHomotopy(setup_from.algebra, omega, h_values)
    if homotopy_offset(setup_from.delta, h) != setup_to.delta:
        raise OffsetMismatch("computed homotopy does not carry delta to "
                             "delta'", h)
    return h


# ---------------------------------------------------------------------------
# linear-map objects

class LinearMapObject:
    """An equivariant linear map psi: E -> g for a g-representation E.

    ``actions[a]`` is rho(x_a) as {(i, j): c} with rho(x_a) e_i = sum_j c e_j;
    ``psi[i]`` is psi(e_i) as {a: c} in the basis of g.
    """

    def __init__(self, lie: LieAlgebraData, e_names: list[str],
                 actions: dict[int, dict[tuple[int, int], Scalar]],
                 psi: dict[int, dict[int, Scalar]], label: str = ""):
        self.lie = lie
        self.e_names = list(e_names)
        self.actions = {a: _as_fraction_dict(m) for a, m in actions.items()}
        self.actions = {a: m for a, m in self.actions.items() if m}
        self.psi = {i: _as_fraction_dict(m) for i, m in psi.items()}
        self.psi = {i: m for i, m in self.psi.items() if m}
        self.label = label
        bad = self.validate()
        if bad:
            raise ValueError("; ".join(bad))

    def dim_e(self) -> int:
        return len(self.e_names)

    def rho(self, a: int, i: int) -> dict[int, Scalar]:
        return {j: c for (ii, j), c in self.actions.get(a, {}).items() if ii == i}

    def act(self, a: int, v: dict[int, Scalar]) -> dict[int, Scalar]:
        out: dict[int, Scalar] = {}
        for i, c in v.items():
            for j, m in self.rho(a, i).items():
                out[j] = out.get(j, 0) + c * m
        return {j: exact(c) for j, c in out.items() if c}

    def psi_of(self, v: dict[int, Scalar]) -> dict[int, Scalar]:
        out: dict[int, Scalar] = {}
        for i, c in v.items():
            for a, m in self.psi.get(i, {}).items():
                out[a] = out.get(a, 0) + c * m
        return {a: exact(c) for a, c in out.items() if c}

    def validate(self) -> list[str]:
        out = []
        n = len(self.lie.names)
        dim = self.dim_e()
        # representation: rho([x_a, x_b]) = rho(x_a) rho(x_b) - rho(x_b) rho(x_a)
        for a in range(n):
            for b in range(a + 1, n):
                want = {}
                for k, c in self.lie.bracket(a, b).items():
                    for i in range(dim):
                        for j, m in self.rho(k, i).items():
                            want[(i, j)] = want.get((i, j), 0) + c * m
                got = {}
                for i in range(dim):
                    lhs = self.act(a, self.act(b, {i: 1}))
                    rhs = self.act(b, self.act(a, {i: 1}))
                    for j in set(lhs) | set(rhs):
                        v = lhs.get(j, 0) - rhs.get(j, 0)
                        if v:
                            got[(i, j)] = v
                keys = set(want) | set(got)
                if any(want.get(k, 0) != got.get(k, 0)
                       for k in keys):
                    out.append(f"rho is not a representation at "
                               f"({self.lie.names[a]}, {self.lie.names[b]})")
        # equivariance: psi(x_a . e) = [x_a, psi(e)]
        for a in range(n):
            for i in range(dim):
                lhs = self.psi_of(self.act(a, {i: 1}))
                rhs: dict[int, Scalar] = {}
                for b, c in self.psi.get(i, {}).items():
                    lo, hi = min(a, b), max(a, b)
                    if lo == hi:
                        continue
                    for k, m in self.lie.bracket(a, b).items():
                        rhs[k] = rhs.get(k, 0) + c * m
                rhs = {k: c for k, c in rhs.items() if c}
                if lhs != rhs:
                    out.append(f"psi is not equivariant at "
                               f"({self.lie.names[a]}, {self.e_names[i]})")
        return out


class LinearMapSetup:
    """Everything :func:`linear_map_setup` builds for one linear map."""

    def __init__(self, data: LinearMapObject, algebra: CdgaPresentation,
                 omega: DgModule, delta: DgDerivation, bmod: DgModule,
                 connection: DeltaConnection):
        self.data = data
        self.algebra = algebra
        self.omega = omega
        self.delta = delta
        self.bmod = bmod
        self.connection = connection


def linear_map_setup(data: LinearMapObject, label: str = "") -> LinearMapSetup:
    """A = CE(g), Omega = C(g, E^) with E^ in degree +1, delta = psi^.

    B = dual(Omega) = C(g, E[1]) carries the degenerate tower: the only
    connection is the trivial one (Omega (x) B has nothing in the basis
    degrees), so R_k = 0 for k >= 3 and R_2(e1, e2) = -psi(e1).e2.
    """
    algebra = ce_algebra(data.lie)
    dim = data.dim_e()
    # E^ with the dual action: rho^(x_a) e_i^ = -sum_j rho(x_a)[j -> i] e_j^
    diff: dict[tuple[int, int], AlgebraElement] = {}
    for a in data.actions:
        for (j, i), c in data.actions[a].items():
            cur = diff.get((i, j), AlgebraElement())
            cur = cur + AlgebraElement.monomial((a,), -c)
            if cur.is_zero():
                diff.pop((i, j), None)
            else:
                diff[(i, j)] = cur
    omega = DgModule(algebra, GradedBasis([n + "^" for n in data.e_names],
                                          [1] * dim), diff,
                     label=f"Omega({label or data.label})")
    values: dict[int, ModuleElement] = {}
    for a in range(len(data.lie.names)):
        acc: dict[int, AlgebraElement] = {}
        for i in range(dim):
            c = data.psi.get(i, {}).get(a, 0)
            if c:
                acc[i] = AlgebraElement.scalar(c)
        if acc:
            values[a] = ModuleElement(omega, acc)
    delta = DgDerivation(algebra, omega, values,
                         label=f"psi^({label or data.label})")
    bmod = dual_module(omega, name_fn=lambda n: n.rstrip("^") + "~")
    conn = extend_connection(delta, bmod, label="trivial")
    return LinearMapSetup(data, algebra, omega, delta, bmod, conn)


def loday_pirashvili_bracket(data: LinearMapObject, i: int, j: int) -> dict[int, Scalar]:
    """e_i o e_j = psi(e_i) . e_j, the bracket the degree -1 slots recover."""
    out: dict[int, Scalar] = {}
    for a, c in data.psi.get(i, {}).items():
        for k, m in data.act(a, {j: 1}).items():
            out[k] = out.get(k, 0) + c * m
    return {k: exact(c) for k, c in out.items() if c}


# ---------------------------------------------------------------------------
# stock instances

def sl2() -> LieAlgebraData:
    return LieAlgebraData(["h", "e", "f"],
                          {(0, 1): {1: 2},
                           (0, 2): {2: -2},
                           (1, 2): {0: 1}})


def affine() -> LieAlgebraData:
    return LieAlgebraData(["x", "y"], {(0, 1): {1: 1}})


def abelian(n: int = 2) -> LieAlgebraData:
    return LieAlgebraData([f"z{i + 1}" for i in range(n)], {})


def heisenberg() -> LieAlgebraData:
    return LieAlgebraData(["x", "y", "z"], {(0, 1): {2: 1}})


def sl2_borel_pair(splitting: dict | None = None) -> PairSetup:
    """sl2 over its Borel subalgebra span(h, e); quotient spanned by f~.

    The standard splitting is j0(f~) = f; pass {0: {1: 1}} for
    j'(f~) = f + e.
    """
    pair = LiePair(sl2(), [0, 1], label="sl2/borel")
    return lie_pair_setup(pair, splitting, label="sl2/borel")


def affine_pair(splitting: dict | None = None) -> PairSetup:
    """[x, y] = y over A = span(x).  j0(y~) = y makes delta = 0; the
    shifted splitting {0: {0: 1}} (j(y~) = y + x) does not."""
    pair = LiePair(affine(), [0], label="affine/x")
    return lie_pair_setup(pair, splitting, label="affine/x")


def abelian_pair() -> PairSetup:
    """Two-dimensional abelian pair: delta = 0, everything degenerates."""
    pair = LiePair(abelian(2), [0], label="abelian")
    return lie_pair_setup(pair, label="abelian")


def adjoint_linear_map() -> LinearMapSetup:
    """psi = id: g -> g for the affine algebra; the recovered bracket on
    E is the Lie bracket itself."""
    lie = affine()
    actions = {
        0: {(1, 1): 1},   # ad_x: y -> y
        1: {(0, 1): -1},  # ad_y: x -> -y
    }
    psi = {0: {0: 1}, 1: {1: 1}}
    return linear_map_setup(
        LinearMapObject(lie, ["a", "b"], actions, psi, label="adjoint"))


def double_adjoint_linear_map() -> LinearMapSetup:
    """E = g (+) g with the diagonal adjoint action and psi the projection
    onto the second copy: the recovered bracket is not skew-symmetric."""
    lie = affine()
    actions = {
        0: {(1, 1): 1, (3, 3): 1},
        1: {(0, 1): -1, (2, 3): -1},
    }
    psi = {2: {0: 1}, 3: {1: 1}}
    return linear_map_setup(
        LinearMapObject(lie, ["a1", "b1", "a2", "b2"], actions, psi,
                        label="adjoint(+)adjoint"))


def adjoint_trivial_linear_map() -> LinearMapSetup:
    """E = g (+) Q.t with t acted on trivially and psi = (id, 0): the
    carrier B = C(g, E[1]) has nonzero cohomology (carried by t)."""
    lie = affine()
    actions = {
        0: {(1, 1): 1},
        1: {(0, 1): -1},
    }
    psi = {0: {0: 1}, 1: {1: 1}}
    return linear_map_setup(
        LinearMapObject(lie, ["a", "b", "t"], actions, psi,
                        label="adjoint(+)trivial"))


def coadjoint_module(setup: LinearMapSetup) -> tuple[DgModule, DeltaConnection]:
    """The coadjoint representation as a dg module over the same CE(g),
    with its canonical (forced) delta-connection."""
    lie = setup.data.lie
    n = len(lie.names)
    # rho*(x_a) xi^i = -sum_j ad_a[j -> i] xi^j, where ad_a[j -> k] is the
    # coefficient of x_k in [x_a, x_j]
    diff: dict[tuple[int, int], AlgebraElement] = {}
    for a in range(n):
        for j in range(n):
            lo, hi = min(a, j), max(a, j)
            if lo == hi:
                continue
            for k, c in lie.bracket(a, j).items():
                cur = diff.get((k, j), AlgebraElement())
                cur = cur + AlgebraElement.monomial((a,), -c)
                if cur.is_zero():
                    diff.pop((k, j), None)
                else:
                    diff[(k, j)] = cur
    module = DgModule(setup.algebra,
                      GradedBasis([n_ + "*" for n_ in lie.names],
                                  [0] * n), diff, label="coadjoint")
    conn = extend_connection(setup.delta, module, label="trivial")
    return module, conn
