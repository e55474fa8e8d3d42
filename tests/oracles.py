"""Brute-force twins of the fast detectors and tables.

Everything here enumerates straight from the definitions: no windows, no
memo tables, no dynamic programming.  Exponential, so hosts stay small.
One exception, PlainPairEngine, is the pair walk under its plain push
rule: it drives the engine's own blue tables, and only the push rule is
the twin.
The value classes have a twin too: the frozen dataclass of their fields.
"""

import dataclasses
from itertools import combinations, product
from math import comb

from jumpramsey.core import Color, FormatError, PairColoring, TripleColoring, all_triples, lex_rank
from jumpramsey.search import _Budget, _PairEngine


def dataclass_twin(cls):
    """A frozen dataclass with cls's name, annotations and defaults, and
    nothing else: what the record decorator's methods must agree with."""
    fields = [(name, kind, dataclasses.field(default=vars(cls)[name]))
              if name in vars(cls) else (name, kind)
              for name, kind in cls.__annotations__.items()]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def random_triples(N, rng):
    return TripleColoring(N, rng.getrandbits(comb(N, 3)))


def path_alpha(c, u, v, target=Color.RED):
    """1 + edges of the longest target path ending (u, v), by walking every
    increasing sequence backwards from the pair."""
    want_red = target is Color.RED
    best = 1

    def back(seq):
        nonlocal best
        if len(seq) - 1 > best:
            best = len(seq) - 1
        for t in range(1, seq[0]):
            if c.is_red(t, seq[0], seq[1]) == want_red:
                back((t,) + seq)

    back((u, v))
    return best


def alpha_map(c, target=Color.RED):
    return {
        (u, v): path_alpha(c, u, v, target)
        for u in range(1, c.N + 1)
        for v in range(u + 1, c.N + 1)
    }


def naive_alpha_values(c, target=Color.RED):
    """alpha in pair lex-rank order, pulled per pair: alpha(u, v) is one
    more than the best alpha(t, u) over every t < u with (t, u, v) on
    target, looked up triple by triple."""
    want_red = target is Color.RED
    N = c.N
    values = {}
    for u in range(1, N + 1):
        for v in range(u + 1, N + 1):
            best = 0
            for t in range(1, u):
                if c.is_red(t, u, v) == want_red and values[t, u] > best:
                    best = values[t, u]
            values[u, v] = best + 1
    return tuple(values.values())


def naive_beta_table(c):
    """(betas, chains) in pair lex-rank order by the plain block-chain DP.

    Per pair (u, v), every t < u that closes a block (t, u, v) is tried and,
    for each, every s < t whose chain it may extend is scanned again; ties
    go to the smallest t, then the smallest s.  chains[r] is
    (vertices, block values), or None where beta is 1.
    """
    pairs = list(combinations(range(1, c.N + 1), 2))
    alpha = dict(zip(pairs, naive_alpha_values(c)))
    blocks, pred = {}, {}
    for (u, v) in pairs:
        auv = alpha[u, v]
        best, best_pred = 0, None
        for t in range(1, u):
            if alpha[t, u] != auv or alpha[t, v] != auv:
                continue
            ext, ext_s = 0, None
            for s in range(1, t):
                if blocks[s, t] >= 1 and alpha[s, t] >= auv and blocks[s, t] > ext:
                    ext, ext_s = blocks[s, t], s
            if 1 + ext > best:
                best, best_pred = 1 + ext, (t, ext_s)
        blocks[u, v], pred[u, v] = best, best_pred

    def rebuild(u, v):
        t, s = pred[u, v]
        return (t, u, v) if s is None else rebuild(s, t) + (u, v)

    chains = []
    for (u, v) in pairs:
        b = blocks[u, v]
        if b == 0:
            chains.append(None)
            continue
        verts = rebuild(u, v)
        chains.append(
            (verts, tuple(alpha[verts[2 * i], verts[2 * i + 1]] for i in range(b)))
        )
    return tuple(blocks[p] + 1 for p in pairs), tuple(chains)


def naive_profiles(c):
    """Staircase depths per vertex, from the definition: at v, width a
    reaches b exactly when some u < v has alpha(u, v) >= a and
    beta(u, v) >= b, for a up to the largest alpha(u, v)."""
    pairs = list(combinations(range(1, c.N + 1), 2))
    alpha = dict(zip(pairs, naive_alpha_values(c)))
    beta = dict(zip(pairs, naive_beta_table(c)[0]))
    out = {}
    for v in range(1, c.N + 1):
        pts = [(alpha[u, v], beta[u, v]) for u in range(1, v)]
        width = max((a for a, _ in pts), default=0)
        out[v] = tuple(
            max(b for pa, b in pts if pa >= a) for a in range(1, width + 1)
        )
    return out


def longest_path(c, target=Color.RED):
    """(depth, lex-least witness) over every increasing target sequence."""
    want_red = target is Color.RED
    best_len, best_seq = 0, ()

    def fwd(seq):
        nonlocal best_len, best_seq
        if len(seq) > best_len or (len(seq) == best_len and seq < best_seq):
            best_len, best_seq = len(seq), seq
        for w in range(seq[-1] + 1, c.N + 1):
            if c.is_red(seq[-2], seq[-1], w) == want_red:
                fwd(seq + (w,))

    for u in range(1, c.N + 1):
        for v in range(u + 1, c.N + 1):
            fwd((u, v))
    return best_len - 1, best_seq


def forward_red_path(c):
    """(depth, witness) of the longest red path by the per-triple forward
    table: cont(u, v), the most red triples that can follow the pair
    (u, v), filled in reverse lex order from every red (u, v, w) one triple
    at a time.  The witness starts at the first pair with the largest cont
    and takes the smallest w each time."""
    N = c.N
    if N < 2:
        return 0, tuple(range(1, N + 1))
    cont = {}
    for u in range(N - 1, 0, -1):
        for v in range(N, u, -1):
            cont[u, v] = max((cont[v, w] + 1 for w in range(v + 1, N + 1)
                              if c.is_red(u, v, w)), default=0)
    top = max(cont.values())
    u, v = next(p for p in sorted(cont) if cont[p] == top)
    path = [u, v]
    for k in range(top - 1, -1, -1):
        w = next(w for w in range(v + 1, N + 1)
                 if c.is_red(u, v, w) and cont[v, w] == k)
        u, v = v, w
        path.append(w)
    return top + 1, tuple(path)


def chain_beta(c, u, v, alphas=None):
    """1 + the most blocks over every odd chain ending (u, v).

    A block needs the same alpha on all three of its pairs, and block
    values may not increase along the chain.
    """
    if alphas is None:
        alphas = alpha_map(c)
    best = 0
    for size in range(1, u, 2):
        for pre in combinations(range(1, u), size):
            seq = pre + (u, v)
            nblocks = (len(seq) - 1) // 2
            vals = []
            for i in range(nblocks):
                x, y, z = seq[2 * i], seq[2 * i + 1], seq[2 * i + 2]
                a = alphas[(x, y)]
                if alphas[(y, z)] != a or alphas[(x, z)] != a:
                    break
                vals.append(a)
            else:
                if all(p >= q for p, q in zip(vals, vals[1:])):
                    if nblocks > best:
                        best = nblocks
    return best + 1


def member_edges(m, jumps):
    """Required triples for the given jump positions, clipped to [m]."""
    need = {(i, i + 1, i + 2) for i in range(1, m - 1)}
    for v in jumps:
        for e in ((v - 2, v - 1, v + 1), (v - 1, v + 1, v + 2)):
            if e[0] >= 1 and e[2] <= m:
                need.add(e)
    for v in range(2, m):
        if v - 1 in jumps and v + 1 in jumps:
            e = (v - 2, v, v + 2)
            if e[0] >= 1 and e[2] <= m:
                need.add(e)
    return sorted(need)


def jump_sets(m, n):
    """All n-subsets of interior positions with no two adjacent."""
    return [
        J
        for J in combinations(range(2, m), n)
        if all(q - p >= 2 for p, q in zip(J, J[1:]))
    ]


def naive_member(c, n):
    """Least (vertices, jumps) whose required triples are all blue."""
    N = c.N
    best_verts, best_jumps = None, None
    for m in range(2 * n + 1, N + 1):
        jsets = jump_sets(m, n)
        needs = [member_edges(m, J) for J in jsets]
        for verts in combinations(range(1, N + 1), m):
            if best_verts is not None and verts >= best_verts:
                continue
            good = [
                J
                for J, need in zip(jsets, needs)
                if all(
                    c.is_blue(verts[a - 1], verts[b - 1], verts[cc - 1])
                    for (a, b, cc) in need
                )
            ]
            if good:
                best_verts = verts
                best_jumps = min(good)
    if best_verts is None:
        return None
    return best_verts, best_jumps


def naive_red_blocks(c):
    """Per first vertex t = 0..N, the red triples (t, ., .) as one int, read
    one rank at a time: the k-th triple of t in rank order is bit k."""
    blocks, seen = [0] * (c.N + 1), [0] * (c.N + 1)
    for rank, (a, _, _) in enumerate(all_triples(c.N)):
        blocks[a] |= c.is_red_rank(rank) << seen[a]
        seen[a] += 1
    return blocks


def naive_jump_step(n, mask, cond):
    """JumpStates(n).step by visiting all 8(n + 1) states (f, used), bit
    8 * used + f, whether mask holds them or not."""
    out = 0
    for used in range(n + 1):
        for f in range(8):
            if not mask >> (8 * used + f) & 1:
                continue
            if (f & 1 and not cond & 1 or f & 2 and not cond & 2
                    or f & 5 == 5 and not cond & 4):
                continue
            out |= 1 << (8 * used + (f << 1 & 7))
            if not f & 1 and used < n:
                out |= 1 << (8 * (used + 1) + (f << 1 & 7 | 1))
    return out


def naive_fits(n, spare):
    """The states (f, used) of JumpStates(n) whose member can still be
    finished with spare host vertices: 2 per missing jump, 1 after a jump."""
    return sum(1 << (8 * used + f) for used in range(n + 1) for f in range(8)
               if 2 * (n - used) + (f & 1) <= spare)


def naive_embedding(c, pattern):
    """Least all-blue embedding by scanning vertex subsets in lex order."""
    m = pattern.m
    if m == 0:
        return ()
    if m > c.N:
        return None
    for verts in combinations(range(1, c.N + 1), m):
        if all(
            c.is_blue(verts[a - 1], verts[b - 1], verts[cc - 1])
            for (a, b, cc) in pattern.edges
        ):
            return verts
    return None


def mono_triangles(pairs, chi):
    """All triangles of an ordered graph that chi colors with one value."""
    verts = sorted({x for p in pairs for x in p})
    ps = set(pairs)
    out = []
    for (x, y, z) in combinations(verts, 3):
        if (x, y) in ps and (y, z) in ps and (x, z) in ps:
            if chi[(x, y)] == chi[(y, z)] == chi[(x, z)]:
                out.append((x, y, z))
    return out


def gh_peel(m, jumps, chi):
    """The triangle the jump peel closes, by recursion on the definition:
    rebuild the associated graph of [m], and when its least color lands on
    no pair ending before the largest jump w, drop w and peel [w-1];
    otherwise {w-1, w, w+1} is the triangle."""
    *rest, w = sorted(jumps)
    if not rest:
        return (w - 1, w, w + 1)
    pairs = {(i, i + 1) for i in range(1, m)} | {(v - 1, v + 1) for v in jumps}
    least = min(chi[p] for p in pairs)
    if any(b <= w - 1 and chi[(a, b)] == least for (a, b) in pairs):
        return (w - 1, w, w + 1)
    return gh_peel(w - 1, rest, chi)


def grid_downsets(n):
    """Downward-closed subsets of the n-by-n grid by raw subset scan."""
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    count = 0
    for mask in range(1 << len(cells)):
        s = {cells[i] for i in range(len(cells)) if mask >> i & 1}
        if all(
            (p, q) in s
            for (i, j) in s
            for p in range(1, i + 1)
            for q in range(1, j + 1)
        ):
            count += 1
    return count


def avoids(c, red_m, blue_kind, blue_arg):
    """Whether c has no red path on red_m vertices and no blue copy of the
    blue spec, by the oracles above, not the package detectors.

    blue_kind is 'path', 'pattern' or 'jumps'.
    """
    if blue_kind == "path":
        blue = longest_path(c, Color.BLUE)[0] >= blue_arg - 1
    elif blue_kind == "pattern":
        blue = naive_embedding(c, blue_arg) is not None
    else:
        blue = naive_member(c, blue_arg) is not None
    return not blue and longest_path(c, Color.RED)[0] < red_m - 1


def naive_decide(N, red_m, blue_kind, blue_arg):
    """First avoiding coloring over all 2^C(N,3) assignments, or None."""
    for bits in range(1 << comb(N, 3)):
        c = TripleColoring(N, bits)
        if avoids(c, red_m, blue_kind, blue_arg):
            return c
    return None


def naive_pair_decide(N, red_m, blue_kind, blue_arg):
    """First avoiding lift over every alpha: pairs -> [red_m - 2], or None.

    The lift of alpha is red at (u, v, w) exactly when alpha(u, v) <
    alpha(v, w), built here from that definition, triple by triple.
    """
    pairs = list(combinations(range(1, N + 1), 2))
    seen = set()  # lifts already checked: many tables share one
    for values in product(range(1, red_m - 1), repeat=len(pairs)):
        alpha = dict(zip(pairs, values))
        marks = "".join("1" if alpha[u, v] < alpha[v, w] else "0"
                        for u, v, w in all_triples(N))
        if marks in seen:
            continue
        seen.add(marks)
        c = TripleColoring.from_bitstring(N, marks)
        if avoids(c, red_m, blue_kind, blue_arg):
            return c
    return None


class PlainPairEngine(_PairEngine):
    """The pair walk under the plain push rule, a drop-in engine for
    search.decide: every assignment to (v, w) colours its row as the lift
    of alpha and every later row of w by the forced-blue read, then pushes
    every blue triple of those rows, row by row, up to the first copy.  It
    recurses over the pairs by name and keeps no push plan; value 1 is
    skipped where the engine's ones say so."""

    def walk(self, start, stop, leaf):
        N, alpha, colour, push, top = self.N, self.alpha, self.colour, self.table.push, self.top
        rank = {pair: p for p, pair in enumerate(combinations(range(1, N + 1), 2))}
        colex = sorted(rank, key=lambda pair: pair[::-1])

        def visit(d):
            if d == stop:
                leaf()
                return
            v, w = colex[d]
            for j in range(1, min(top, N) + 1):
                if j == 1 and not self.ones[d]:
                    continue
                if j > 1 and all(alpha[rank[u, v]] != j - 1 for u in range(1, v)):
                    continue
                if self.nodes == self.cap:
                    raise _Budget()
                self.nodes += 1
                self.max_depth = max(self.max_depth, d + 1)
                alpha[rank[v, w]] = j
                for b in range(v, w):
                    for u in range(1, b):
                        value = alpha[rank[u, b]]
                        colour[lex_rank((u, b, w), N)] = value < j if b == v else value != top
                if any(not colour[r] and push(r) for r in
                       (lex_rank((u, b, w), N) for b in range(v, w) for u in range(1, b))):
                    self.blue_hits += 1
                    continue
                visit(d + 1)
            alpha[rank[v, w]] = 0

        visit(start)

    def _replay(self, prefix):
        """Each pair of the prefix assigned, its row coloured and its blue
        triples pushed; the walk colours every later row itself."""
        N, alpha, colour = self.N, self.alpha, self.colour
        rank = {pair: p for p, pair in enumerate(combinations(range(1, N + 1), 2))}
        for (v, w), j in zip(sorted(rank, key=lambda pair: pair[::-1]), prefix):
            alpha[rank[v, w]] = j
            for u in range(1, v):
                r = lex_rank((u, v, w), N)
                colour[r] = alpha[rank[u, v]] < j
                if not colour[r]:
                    self.table.push(r)


def scan_pair_coloring(text):
    """The 'pairs N k' text read one line at a time, in any order: the
    twin of the column reader, with the first error and its line number."""
    lines = [(no, raw.strip()) for no, raw in enumerate(text.splitlines(), start=1)
             if raw.strip()]
    if not lines:
        raise FormatError("empty input")
    no, header = lines[0]
    tok = header.split()
    if len(tok) != 3 or tok[0] != "pairs":
        raise FormatError(f"expected 'pairs N k' header, got {header!r}", no)
    try:
        N, k = int(tok[1]), int(tok[2])
    except ValueError:
        raise FormatError(f"expected integers, got {tok[1:]!r}", no) from None
    if N < 0 or k < 0:
        raise FormatError("N and k must be nonnegative", no)
    colors = {}
    for no, line in lines[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise FormatError(f"expected 'u v c', got {line!r}", no)
        try:
            u, v, c = map(int, parts)
        except ValueError:
            raise FormatError(f"expected integers, got {parts!r}", no) from None
        if not 1 <= u < v <= N:
            raise FormatError(f"({u}, {v}) is not an increasing pair in [{N}]", no)
        if not 1 <= c <= k:
            raise FormatError(f"color {c} outside 1..{k}", no)
        if (u, v) in colors:
            raise FormatError(f"duplicate entry for pair ({u}, {v})", no)
        colors[u, v] = c
    pairs = list(combinations(range(1, N + 1), 2))
    for pair in pairs:
        if pair not in colors:
            raise FormatError(f"partial coloring: pair {pair} has no color")
    return PairColoring(N, k, tuple(colors[pair] for pair in pairs))
