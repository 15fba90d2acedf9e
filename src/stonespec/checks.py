"""Exhaustive desk-scale check suites.

Each suite machine-checks one cluster of structural statements on
exhaustively generated finite instances and reports counterexamples instead
of assuming them away.  :func:`run_suite` makes each suite's result, which
the suite fills as a pure function of (max_size, seed); the CLI ``check``
subcommand and the acceptance tests both run suites through it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

from . import family as fam
from . import measurable as mea
from . import topology as top
from .errors import InputError
from .lattice import Lattice, Record, bits, boolean_lattice, chain_lattice, mo_lattice
from .stone import (dual_ideal_intersection_law, is_completely_distributive,
                    stone_space)

HALF = Fraction(1, 2)
GRID3 = (Fraction(0), HALF, Fraction(1))
PROBES = (Fraction(-1),) + GRID3  # below the grid and on each of its points


class SuiteResult(Record):
    name: str
    cases: int = 0
    failures: list = []
    notes: list = []

    def check(self, ok: bool, message: str, *args):
        """Count a case; only a failing one renders ``message.format(*args)``."""
        self.cases += 1
        if not ok:
            self.failures.append(message.format(*args))

    def lines(self):
        out = []
        for n in self.notes:
            out.append(f"  note: {n}")
        for f_ in self.failures:
            out.append(f"  FAIL: {f_}")
        out.append(f"[{self.name}] {len(self.failures)} failures / {self.cases} cases")
        return out


def _clamp(max_size: int, cap: int) -> int:
    """The size a sweep runs at when asked for ``max_size``: at most ``cap``,
    the largest size that sweep affords."""
    return min(cap, max_size)


def _ground(n):
    return tuple(str(i) for i in range(1, n + 1))


# --- bijection between measurable functions and their families ----------------


def suite_bijection(res: SuiteResult, max_size: int, seed: int) -> None:
    """Round-trip the level-set family and induced-function transforms over
    every field of sets on a small ground set and every grid function."""
    n = _clamp(max_size, 4)
    fields = mea.all_fields(_ground(n))
    res.notes.append(f"{len(fields)} fields of sets on {n} points, grid {GRID3}")
    for f in fields:
        cases, failures = mea.bijection_report(f, GRID3)
        res.cases += cases
        res.failures.extend(f"field {f.atoms}: {msg}" for msg in failures)


# --- injectivity of the observable-function transform --------------------------


def _injectivity_fixtures(max_size: int):
    out = []
    for n in range(1, _clamp(max_size, 4) + 1):
        out.append((f"boolean({n})", boolean_lattice(n)))
    for k in range(1, _clamp(max_size, 3) + 1):
        out.append((f"MO({k})", mo_lattice(k)))
    for m in range(2, _clamp(max_size + 1, 5) + 1):
        out.append((f"chain({m})", chain_lattice(m)))
    return out


def suite_injectivity(res: SuiteResult, max_size: int, seed: int) -> None:
    """Distinct canonical bounded families must induce distinct observable
    functions, over every fixture lattice and the threshold grid {0, 1, 2}.

    Chains with three or more elements genuinely fail this: their spectrum is
    a single quasipoint, so families with two jumps above the atom collide
    (the distinguishing argument needs an orthocomplement).  The failures are
    reported as the counterexamples they are.
    """
    grid = (Fraction(0), Fraction(1), Fraction(2))
    for label, lat in _injectivity_fixtures(max_size):
        space = stone_space(lat)
        names = [space.point_name(k) for k in range(space.n_points)]
        seen = {}
        for e in fam.enumerate_families(lat, grid):
            key = fam.observable_function(e).values
            other = seen.setdefault(key, e)
            res.check(other is e or other == e,
                      "{}: {!r} and {!r} share the observable function {}",
                      label, other, e, dict(zip(names, key)))


# --- continuity of observable functions ----------------------------------------


POOL = tuple(Fraction(k, 4) for k in range(-8, 9))  # sorted: rng.sample draws by position


def _random_family(rng: random.Random, lat: Lattice) -> fam.SpectralFamily:
    k = rng.randint(1, 4)
    thresholds = sorted(rng.sample(POOL, k))
    chain = [lat.top]
    for _ in range(k - 1):
        lower = list(bits(lat.down[chain[0]] & ~(1 << chain[0] | 1 << lat.bottom)))
        if not lower:
            break
        chain.insert(0, rng.choice(lower))
    jumps = list(zip(thresholds[-len(chain):], chain))
    return fam.SpectralFamily(lat, jumps)


def suite_continuity(res: SuiteResult, max_size: int, seed: int) -> None:
    """Preimages of value-separating open intervals under f_E, for seeded
    random families, are the paper's open sets Q_E(b) minus Q_E(a)."""
    rng = random.Random(seed)
    lattices = [mo_lattice(_clamp(max_size, 3)), boolean_lattice(_clamp(max_size, 4))]
    res.notes.append(f"seed {seed}, 200 random families")
    for i in range(200):
        e = _random_family(rng, lattices[i % 2])
        g = fam.observable_function(e).values
        # the values between the j-th and the k-th cut are the j-th to the
        # (k-1)-th distinct ones: a difference of two level masks
        distinct, masks = fam.level_sets(g)
        cuts = [distinct[0] - 1] + [(a + b) / 2 for a, b in zip(distinct, distinct[1:])]
        cuts.append(distinct[-1] + 1)
        masks = [0] + masks
        # no cut is a value of f_E, so {f_E < c} = {f_E <= c} = Q_E(c)
        base = stone_space(e.lattice).base
        below = [base[e.eval(c)] for c in cuts]
        for j, k in combinations(range(len(cuts)), 2):
            res.check(masks[j] ^ masks[k] == below[k] & ~below[j],
                      "{!r}: preimage of ({}, {}) is not Q_E(b) minus Q_E(a)",
                      e, cuts[j], cuts[k])


# --- complex (two-parameter) families -------------------------------------------


def suite_complex(res: SuiteResult, max_size: int, seed: int) -> None:
    """Every valid two-parameter family on boolean(2) with grid {0,1}^2
    decomposes uniquely and its function splits componentwise."""
    lat = boolean_lattice(2)
    space = stone_space(lat)
    grid = (Fraction(0), Fraction(1))
    candidates = fam.enumerate_families(lat, grid)

    def on_grid(e):  # a family's values at the grid points, row by row
        return [e.eval(x, y) for x in grid for y in grid]
    valid = 0
    for v12 in range(lat.n):
        for v21 in range(lat.n):
            matrix = [[lat.meet2(v12, v21), v12], [v21, lat.top]]
            e = fam.ComplexSpectralFamily(lat, grid, grid, matrix)
            valid += 1
            res.check(on_grid(fam.product_family(*fam.decompose(e))) == matrix[0] + matrix[1],
                      "recombine(decompose) != identity for matrix {}", matrix)
            matches = [(f1, f2) for f1 in candidates for f2 in candidates
                       if on_grid(fam.product_family(f1, f2)) == matrix[0] + matrix[1]]
            res.check(len(matches) == 1,
                      "{} decompositions found for matrix {}", len(matches), matrix)
            # each part against the least row (column) with a cell in the quasipoint
            g = fam.observable_function_complex(e)
            scans = [tuple(next(t for t, line in zip(grid, lines) if any(m >> v & 1 for v in line))
                           for m in space.points) for lines in (matrix, list(zip(*matrix)))]
            res.check([g.re.values, g.im.values] == scans,
                      "componentwise function split fails for matrix {}", matrix)
    res.notes.append(f"{valid} valid matrices on boolean(2) x {{0,1}}^2")


# --- the step-sum spectral theorem ----------------------------------------------


def suite_spectral_theorem(res: SuiteResult, max_size: int, seed: int) -> None:
    """Step sums along epsilon grids approximate the induced function within
    epsilon, exactly on grids containing every threshold."""
    rng = random.Random(seed)
    f6 = mea.FieldOfSets.discrete(_ground(6))
    res.notes.append(f"seed {seed}, 20 random functions on 6 points")
    for _ in range(20):
        values = [Fraction(rng.randint(0, 20), rng.choice((1, 2, 5, 10)))
                  for _ in f6.ground]
        phi = mea.MeasurableFunction(f6, values)
        e = mea.spectral_family_of(phi)
        lo, hi = e.bounds()
        for eps in (HALF, Fraction(1, 10)):
            (p, q), (r, d) = lo.as_integer_ratio(), eps.as_integer_ratio()
            steps = int((hi - lo) / eps) + 1
            grid = [Fraction(p * d + k * r * q, q * d) for k in range(steps + 1)]  # lo + k*eps
            s = mea.riemann_stieltjes_on_points(f6, e, grid)
            err = max(abs(a - b) for a, b in zip(phi.values, s.values))
            res.check(err <= eps, "|phi - s| = {} > {} for {!r}", err, eps, phi)
        exact = mea.riemann_stieltjes_on_points(f6, e, sorted(set(phi.values)))
        res.check(exact == phi, "threshold grid is not exact for {!r}", phi)
    for e in fam.enumerate_families(boolean_lattice(3), GRID3):
        g = fam.observable_function(e)
        integral = fam.riemann_stieltjes(e, e.thresholds)
        res.check(integral == g, "quasipoint step sum differs from f_E for {!r}", e)


# --- the continuous-function correspondence -------------------------------------


def suite_correspondence(res: SuiteResult, max_size: int, seed: int) -> None:
    """Sweep every topology on up to five labeled points and every grid
    function: continuity matches strong regularity in both directions, with
    the domain/regularity side conditions."""
    n_max = _clamp(max_size, 5)
    counts = {1: 1, 2: 4, 3: 29, 4: 355, 5: 6942}
    found = None  # the first regular family that is not strongly regular
    for n in range(1, n_max + 1):
        spaces = top.all_topologies(n)
        res.check(len(spaces) == counts[n],
                  "{} topologies enumerated on {} points, wanted {}",
                  len(spaces), n, counts[n])
        grid_fns = _grid3_functions(n)
        for t in spaces:
            lat = t.lattice()
            for values, levels, fibres in grid_fns:
                # the family's last value, if any, is the union of its values
                dom = t.interior(levels[1][-1])
                res.check(dom == t.full,
                          "{!r}: the family of {} does not cover the space", t, values)
                if t.opens.issuperset(fibres):  # see top.is_continuous
                    e = top._family_of_levels(t, *levels)
                    sr, witness = top.is_strongly_regular(t, e)
                    res.check(sr, "{!r}: continuous {} gave a family "
                                  "that is not strongly regular at {}", t, values, witness)
                    res.check(dom == t.full,
                              "{!r}: admissible domain not the whole space", t)
                    res.check(top.induced_function(t, e) == values,
                              "{!r}: induced function differs from {}", t, values)
            # the family-side direction quantifies over all bounded families
            for e in fam.enumerate_families(lat, GRID3):
                masks = [lat.payload[v] for v in e.values]
                dom = masks[-1]  # a monotone chain's union is its last member
                res.check(dom == t.full, "{!r}: bounded family with partial domain", t)
                res.check(t.closure(dom) == t.full,
                          "{!r}: domain of {!r} is not dense", t, e)
                if top._first_unclosed(t, masks) < 0:
                    res.check(dom in t.opens,
                              "{!r}: domain of strongly regular {!r} is not open", t, e)
                    induced = top.induced_function(t, e)
                    res.check(top.is_continuous(t, induced),
                              "{!r}: strongly regular {!r} induced a "
                              "discontinuous function {}", t, e, induced)
                    back = top.spectral_family_of_continuous(t, induced)
                    res.check(back == e,
                              "{!r}: restriction identity fails for {!r}", t, e)
                    res.check(all(t.is_regular_open(m) for m in masks),
                              "{!r}: strongly regular {!r} has a non-regular value", t, e)
                    sp = fam.spectrum_of(e).spectrum
                    res.check(tuple(sorted(set(induced))) == sp,
                              "{!r}: spectrum of {!r} differs from the image closure", t, e)
                elif found is None and all(t.is_regular_open(m) for m in masks):
                    found = t, e
    # a two-point discrete space: the indicator of a clopen piece jumps at 1
    disc = top.TopSpace.discrete(("1", "2"))
    e = top.spectral_family_of_continuous(disc, (Fraction(1), Fraction(0)))
    res.check(e.thresholds == (Fraction(0), Fraction(1))
              and e.eval(1 - Fraction(1, 1000)) != e.eval(1)
              and top.is_strongly_regular(disc, e)[0],
              "clopen indicator family should be strongly regular with a left jump at 1")
    if found is None:
        res.notes.append("regular-but-not-strongly-regular family: no witness at scale")
    else:
        t, e = found
        res.check(top.classify_family(t, e) == "regular",
                  "witness search returned a non-witness on {!r}", t)
        res.notes.append(f"regular-but-not-strongly-regular witness on {t!r}: {e!r}")


def _grid3_functions(n: int) -> list:
    """Every GRID3-valued function on n points as (values, level sets,
    fibres), none of which depends on a topology; the fibres are the
    differences of consecutive level masks."""
    out = []
    for values in product(GRID3, repeat=n):
        _, masks = levels = fam.level_sets(values)
        out.append((values, levels, [m ^ p for m, p in zip(masks, [0] + masks)]))
    return out


# --- quotient algebras and the induced transform --------------------------------


def suite_quotient(res: SuiteResult, max_size: int, seed: int) -> None:
    """All ideals of the power set on four points: dual-filter laws, the
    kernel law, representative independence and the lift round trip."""
    n = _clamp(max_size, 4)
    f = mea.FieldOfSets.discrete(_ground(n))
    space = f.stone()
    lat = f.lattice()
    ideals = mea.ideals_of(f)
    res.notes.append(f"{len(ideals)} ideals of the power set on {n} points")
    # each grid function and its transform on the whole spectrum: no ideal changes them
    functions = []
    for values in mea.atom_grid_values(f, GRID3):
        phi = mea.MeasurableFunction(f, values)
        full = fam.observable_function(mea.spectral_family_of(phi))
        functions.append((values, [v + 1 for v in values], phi, full))
    for ideal in ideals:
        q = mea.quotient(f, ideal)
        perp = set(ideal.perp_members())
        embedded = q.embedded_point_indices()
        # the dual filter is the intersection of the quasipoints containing it
        acc = None
        for k in embedded:
            members = {lat.payload[e] for e in bits(space.points[k])}
            acc = members if acc is None else acc & members
        res.check(acc == perp,
                  "ideal {!r}: quasipoint intersection differs from the dual filter", ideal)
        for a, b in product(perp, repeat=2):
            res.check(a & b in perp,
                      "ideal {!r}: dual filter not closed under intersection", ideal)
        # quotient quasipoints biject with the embedded ones, member-compatibly
        res.check(len(embedded) == q.stone().n_points,
                  "ideal {!r}: embedding is not a bijection", ideal)
        for reduced_point, k in zip(q.stone().points, embedded):
            for m in f.members():
                in_original = bool(space.points[k] >> f.element_of(m) & 1)
                rm = q.class_of(m)
                in_quotient = bool(reduced_point >> q.reduced.element_of(rm) & 1)
                res.check(in_original == in_quotient,
                          "ideal {!r}: membership mismatch for {}", ideal, f.set_name(m))
        # kernel law and representative independence over the value grid
        for values, bumped, phi, full in functions:
            g = mea._restrict(full, q)
            vanishes = not any(g.values)
            outside = not any(values[p] for p in bits(q.survivors))
            res.check(vanishes == outside,
                      "ideal {!r}: kernel law fails for {!r}", ideal, phi)
            psi_values = list(values)
            for p in bits(ideal.mask):
                psi_values[p] = bumped[p]  # change only inside the ideal
            if ideal.mask:
                psi = mea.MeasurableFunction(f, psi_values)
                res.check(mea.gamma_transform(psi, q) == g,
                          "ideal {!r}: representative dependence for {!r}", ideal, phi)
        # lift round trip on every bounded family of the quotient
        reduced = q.lattice()
        for e in fam.enumerate_families(reduced, GRID3):
            phi = mea.lift_spectral_family(q, e)
            back = mea.spectral_family_of(phi)
            lifted_ok = all(q.class_of(lat.payload[back.eval(t)]) == reduced.payload[e.eval(t)]
                            for t in PROBES)
            res.check(lifted_ok, "ideal {!r}: lifted family has wrong classes", ideal)
            res.check(mea.gamma_transform(phi, q) ==
                      fam.observable_function(e),
                      "ideal {!r}: lift-then-transform differs from f_E", ideal)


# --- the completely increasing calculus ------------------------------------------


def suite_increasing(res: SuiteResult, max_size: int, seed: int) -> None:
    """Closure law and complete distributivity for every regular-open algebra
    on up to four points; complete monotonicity for seeded functions; the
    infimum condition coincides with fibre-constancy on discrete spaces."""
    rng = random.Random(seed)
    spaces = []
    for n in range(1, _clamp(max_size, 4) + 1):
        spaces.extend(top.all_topologies(n))
    res.notes.append(f"{len(spaces)} topologies, seed {seed}, 100 seeded functions")
    for t in spaces:
        lat = t.r_lattice()
        ok, witness = is_completely_distributive(lat)
        res.check(ok, "{!r}: closure law fails for the family {}", t, witness)
    for i in range(100):
        t = spaces[i % len(spaces)]
        lat = t.r_lattice()
        st = stone_space(lat)
        g = fam.ObservableFunction(
            st, [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
                 for _ in range(st.n_points)])
        r = top.r_function(t, g)
        ok, witness = top.completely_increasing_check(lat, r)
        res.check(ok, "{!r}: r_g not completely increasing at {}", t, witness)
    for n in range(1, _clamp(max_size, 4) + 1):
        t = top.TopSpace.discrete(_ground(n))
        p = top.pt_structure(t)
        st = stone_space(t.r_lattice())
        grid_fns = product((Fraction(0), Fraction(1), HALF), repeat=st.n_points) \
            if st.n_points <= 3 else \
            [tuple(Fraction(rng.randint(0, 4), 2) for _ in range(st.n_points))
             for _ in range(30)]
        for values in grid_fns:
            g = fam.ObservableFunction(st, values)
            stars, _ = top.star_condition_check(t, g)
            # on a discrete space the regular opens are all sets, so the
            # spectra coincide and the fibre test applies verbatim
            member = top.cpt_membership(p, fam.ObservableFunction(p.stone, values))
            res.check(stars == member,
                      "discrete({}): infimum condition and fibre test disagree "
                      "for {}", n, values)


# --- the point-fibre function algebra ---------------------------------------------


def suite_point_iso(res: SuiteResult, max_size: int, seed: int) -> None:
    """On discrete spaces the transform from bounded point functions is a
    norm-preserving *-isomorphism onto the functions on the spectrum, and the
    spectrum reproduces the space."""
    rng = random.Random(seed)
    for n in range(1, _clamp(max_size, 5) + 1):
        t = top.TopSpace.discrete(_ground(n))
        st = stone_space(t.lattice())
        p = top.pt_structure(t)
        res.check(st.n_points == n, "discrete({}): spectrum size {}", n, st.n_points)
        res.check(p.pt is not None and sorted(p.pt.values()) == list(range(n)),
                  "discrete({}): fibre map is not a bijection", n)
        res.check(top.identification_check(p),
                  "discrete({}): identification topology differs", n)
        res.check(top.covers_spectrum(p),
                  "discrete({}): some quasipoint lies over no point", n)
        qp_over = {x: k for k, x in p.pt.items()}

        small = (Fraction(0), Fraction(1))
        # a complex target is a pair of real ones, each with its fibre test and
        # f_star of its only candidate source, the point function on the fibres
        real = {}
        for vec in product(small, repeat=n):
            g = fam.ObservableFunction(st, vec)
            real[vec] = (g, top.cpt_membership(p, g),
                         top.f_star(t, [vec[qp_over[x]] for x in range(n)]))
        target_count = 0
        for re_im in product(product(small, repeat=2), repeat=n):
            re = [v[0] for v in re_im]
            im = [v[1] for v in re_im]
            g_re, const_re, back_re = real[tuple(re)]
            g_im, const_im, back_im = real[tuple(im)]
            res.check(fam.ComplexObservableFunction(back_re, back_im)
                      == fam.ComplexObservableFunction(g_re, g_im),
                      "discrete({}): transform misses the target {}+i{}", n, re, im)
            res.check(const_re and const_im,
                      "discrete({}): target not fibre-constant", n)
            target_count += 1
        res.notes.append(f"discrete({n}): {target_count} exhaustive surjectivity targets")
        for _ in range(25):
            # four lists of values a/c as numerators over 2, drawn a then c at each point
            nums = [[rng.randint(-4, 4) * (2 // rng.choice((1, 2))) for _ in range(n)]
                    for _ in range(4)]
            re1, im1, re2, im2 = ([Fraction(a, 2) for a in h] for h in nums)
            four = list(zip(*nums))
            g1 = top.f_star(t, re1, im1)
            g2 = top.f_star(t, re2, im2)
            for k in range(n):
                x = p.pt[k]
                res.check(g1.value(k) == (re1[x], im1[x]),
                          "discrete({}): value at the quasipoint over {} "
                          "differs from the point value", n, t.points[x])
            s_re = [Fraction(a + c, 2) for a, _, c, _ in four]
            s_im = [Fraction(b + d, 2) for _, b, _, d in four]
            res.check(top.f_star(t, s_re, s_im) == g1 + g2,
                      "discrete({}): additivity fails", n)
            p_re = [Fraction(a * c - b * d, 4) for a, b, c, d in four]
            p_im = [Fraction(a * d + b * c, 4) for a, b, c, d in four]
            res.check(top.f_star(t, p_re, p_im) == g1 * g2,
                      "discrete({}): multiplicativity fails", n)
            res.check(top.f_star(t, re1, [Fraction(-b, 2) for b in nums[1]]) == g1.conj(),
                      "discrete({}): conjugation fails", n)
            norm_m = Fraction(max(a * a + b * b for a, b, _, _ in four), 4)
            res.check(g1.sup_norm_squared() == norm_m,
                      "discrete({}): sup norm not preserved", n)


# --- the counterexample battery -----------------------------------------------------


def suite_counterexamples(res: SuiteResult, max_size: int, seed: int) -> None:
    """Named negative cases: the two-point non-discrete space, the six-element
    orthomodular non-distributive lattice and the one-quasipoint chain."""
    sierp = top.TopSpace.from_sets(("1", "2"), [[], ["1"], ["1", "2"]])
    e = top.spectral_family_of_continuous(sierp, (Fraction(0), Fraction(1)))
    sr, witness = top.is_strongly_regular(sierp, e)
    res.check(not sr and witness == (Fraction(0), HALF),
              "two-point space: expected witness (0, 1/2), got {}", witness)
    induced = top.induced_function(sierp, e)
    res.check(not top.is_continuous(sierp, induced),
              "two-point space: induced function should not be continuous")
    res.notes.append(f"two-point space witness pair: {witness}")

    mo2 = mo_lattice(2)
    ok, w1 = mo2.is_distributive()
    res.check(not ok and w1 is not None, "MO(2) should fail distributivity")
    ok2, w2 = is_completely_distributive(mo2)
    res.check(not ok2 and set(w2) == {"a", "a'"},
              "MO(2) complete distributivity witness should be a, a', got {}", w2)
    res.notes.append(f"MO(2) witnesses: distributivity {w1}, closure law {w2}")

    c3 = chain_lattice(3)
    space = stone_space(c3)
    res.check(space.n_points == 1,
              "chain(3) should have exactly 1 quasipoint, got {}", space.n_points)
    res.check(space.points[0] == (1 << c3.eid("m1")) | (1 << c3.eid("1")),
              "chain(3) quasipoint should be the filter of the middle element")
    res.check(dual_ideal_intersection_law(c3, "m1")
              and not dual_ideal_intersection_law(c3, "1"),
              "chain(3) intersection law should hold at the atom and fail at the top")


SUITES = {
    "bijection": suite_bijection,
    "injectivity": suite_injectivity,
    "continuity": suite_continuity,
    "complex-decomposition": suite_complex,
    "spectral-theorem": suite_spectral_theorem,
    "continuous-correspondence": suite_correspondence,
    "quotient": suite_quotient,
    "increasing-calculus": suite_increasing,
    "point-isomorphism": suite_point_iso,
    "counterexamples": suite_counterexamples,
}


def suite(name: str):
    """The suite called ``name``."""
    if name not in SUITES:
        raise InputError(f"unknown suite {name!r}; choose from "
                         + ", ".join(sorted(SUITES)) + ", all")
    return SUITES[name]


def run_suite(name: str, max_size: int = 4, seed: int = 0) -> SuiteResult:
    """Run the suite ``name`` into a result named after it, a raise reported."""
    res, run = SuiteResult(name), suite(name)  # an unknown name still raises
    try:
        run(res, max_size, seed)
    except Exception as err:
        res.check(False, "raised {}: {}", type(err).__name__, err)
    return res
