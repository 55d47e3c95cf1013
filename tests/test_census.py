import json
import os
import resource
import subprocess
import sys
import threading
import time
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from ffdigits import census, cli, polys, sieve
from ffdigits.census import (
    DEFAULT_BUDGET,
    REPORT_COLUMNS,
    BudgetError,
    census_report,
    count_restricted,
    report_json_line,
    scan,
    write_csv,
    write_json,
)
from ffdigits.charsum import RestrictedSet
from ffdigits.field import digits, get_field, matmul, negate, undigits
from ffdigits.polys import enumerate_monic, is_irreducible
from ffdigits.sieve import irreducible_codes, prime_count

F2 = get_field(2)
F3 = get_field(3)
F4 = get_field(2, 2)
F5 = get_field(5)
F7 = get_field(7)
F8 = get_field(2, 3)
F9 = get_field(3, 2)
F11 = get_field(11)
F17 = get_field(17)
F25 = get_field(5, 2)
F27 = get_field(3, 3)
F31 = get_field(31)


# ---------------------------------------------------------------------------
# exact counts

def test_count_examples():
    assert count_restricted(RestrictedSet.of(F2, 0), 2) == 1
    # only candidate with every lower coefficient 1 is t^3+t^2+t+1 = (t+1)(t^2+1)
    assert count_restricted(RestrictedSet.of(F2, 0), 3) == 0
    assert count_restricted(RestrictedSet.of(F3, 0), 2) == 2
    # no restriction recovers the full irreducible count
    for q, field in [(2, F2), (3, F3), (4, F4), (5, F5), (8, F8), (9, F9)]:
        empty = RestrictedSet(field, frozenset())
        for n in (1, 2, 3, 4):
            assert count_restricted(empty, n) == prime_count(q, n)


def test_count_degree_edge_cases():
    R = RestrictedSet.of(F3, 0)
    assert count_restricted(R, 0) == 0
    # degree 1: t + c is irreducible for every allowed c
    assert count_restricted(R, 1) == 2
    assert count_restricted(RestrictedSet(F3, frozenset()), 1) == 3


@pytest.mark.parametrize("field", [F2, F3, F4, F5, F7, F8, F9])
def test_count_matches_brute_force(field):
    # every R with |R| <= 2 (a single allowed digit at q <= 3, 0 in R or not)
    # and every n with q^n <= 3200, odd and even, from n = 0
    q = field.q
    subsets = [frozenset(c) for r in (0, 1, 2) for c in combinations(range(q), r)]
    for n in range(0, 12):
        if q**n > 3200:
            break
        irreducible = [
            set(f.coeffs[:-1]) for f in enumerate_monic(field, n) if n and is_irreducible(f)
        ]
        for forbidden in subsets:
            if len(forbidden) == q:
                continue
            expected = sum(1 for c in irreducible if not c & forbidden)
            assert count_restricted(RestrictedSet(field, forbidden), n) == expected


def test_parallel_determinism():
    # 4^9 candidates are 8 chunks, which 3 stripes do not divide; 3 and 4
    # threads on 2 cores switch often with a short switch interval
    R = RestrictedSet.of(F5, 0)
    reference = count_restricted(R, 9, workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert [count_restricted(R, 9, workers=w) for w in (2, 3, 4)] == [reference] * 3
    finally:
        sys.setswitchinterval(interval)


def test_parallel_determinism_extension_field():
    # 4^9 candidates are 8 chunks
    R = RestrictedSet(F4, frozenset())
    assert count_restricted(R, 9, workers=2) == count_restricted(R, 9) == prime_count(4, 9)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_count_builds_its_tables_once(workers, monkeypatch):
    # the threads share the caller's tables; none builds its own
    calls = []
    build = census.sieve_tables
    monkeypatch.setattr(census, "sieve_tables", lambda *args: calls.append(args) or build(*args))
    count_restricted(RestrictedSet.of(F5, 0), 9, workers=workers)  # 8 chunks
    assert calls == [(F5, 9, (1, 2, 3, 4))]


@pytest.mark.parametrize("workers,threads", [(0, 0), (1, 0), (2, 1), (8, 1)])
def test_a_count_starts_at_most_one_thread_per_chunk(workers, threads, monkeypatch):
    # 3^10 candidates are 2 chunks: the caller sieves one, and at most one
    # thread the other, whatever the worker count
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t) or start(t))
    R = RestrictedSet(F3, frozenset())
    assert count_restricted(R, 10, workers=workers) == prime_count(3, 10)
    assert len(started) == threads


def test_a_failing_stripe_stops_the_threads(monkeypatch):
    # the caller's stripe fails at its first chunk (an interrupt, say); the
    # thread's stripe of 5905 chunks, 0.5 ms each, ends within a few chunks
    # rather than running on while the count unwinds
    sieved = []

    def sieve(tables, start, stop):
        if start == 0:
            raise RuntimeError("first chunk")
        sieved.append(start)
        time.sleep(0.0005)
        return []

    monkeypatch.setattr(census, "sieve", sieve)
    monkeypatch.setattr(census, "sieve_tables", lambda field, n, allowed: None)
    with pytest.raises(RuntimeError, match="first chunk"):
        count_restricted(RestrictedSet(F3, frozenset()), 18, workers=2, budget=10**30)
    assert len(sieved) < 100


def test_counts_keep_no_census_state():
    def sizes():
        out = {}
        for name, value in vars(census).items():
            if isinstance(value, (dict, list, set)):
                out[name] = len(value)
            elif getattr(value, "__module__", None) == census.__name__ and hasattr(
                value, "cache_info"
            ):
                out[name] = value.cache_info().currsize
        return out

    count_restricted(RestrictedSet.of(F3, 0), 4)
    before = sizes()
    for field, forbidden, n in [(F3, {1}, 6), (F5, set(), 4), (F4, {0, 3}, 7), (F3, {0}, 5)]:
        count_restricted(RestrictedSet(field, frozenset(forbidden)), n)
        assert sizes() == before


def _no_lists(monkeypatch):
    # neither list builder, the sieve's own or Rabin's, may run before a refusal
    def no_lists(*args):
        raise AssertionError("irreducible list built")

    monkeypatch.setattr(sieve, "irreducible_codes", no_lists)
    monkeypatch.setattr(polys, "irreducible_polys", no_lists)


def test_remainder_code_limit_before_any_list(monkeypatch):
    # one candidate, but codes modulo degree 65 would not fit in int64
    _no_lists(monkeypatch)
    with pytest.raises(BudgetError, match="2\\^63"):
        count_restricted(RestrictedSet.of(F2, 1), 130, budget=10**30)


def test_sieve_table_entries_before_any_list(monkeypatch):
    # 3^12 candidates and 17^1 + ... + 17^6 listed ones are within the budget,
    # the (3^6 + 3^6) * sum pi(d) table codes are not
    _no_lists(monkeypatch)
    with pytest.raises(BudgetError, match="sieve table entries"):
        count_restricted(RestrictedSet(F17, frozenset(range(3, 17))), 12)


def test_the_budget_counts_the_inverse_of_a_marked_degree(monkeypatch, capsys):
    # at q = 3, R = {0}, n = 4 degree 1 is marked: its inverse holds 3 x 3 x 2
    # slots where its low table held 3 x 4 codes, so the tables hold 54 entries,
    # and a budget of 50, which admits the 16 candidates, refuses them
    argv = ["count", "--q", "3", "--forbid", "0", "--n", "4", "--budget"]
    with monkeypatch.context() as m:
        _no_lists(m)
        assert cli.main(argv + ["50"]) == cli.EXIT_BUDGET
    assert "54 sieve table entries" in capsys.readouterr().err
    assert cli.main(argv + ["54"]) == 0
    assert capsys.readouterr().out.strip() == "6"


def test_sieve_reaches_the_list_builder(monkeypatch):
    # the guard above would pass vacuously if the census took its lists elsewhere
    _no_lists(monkeypatch)
    with pytest.raises(AssertionError, match="irreducible list built"):
        count_restricted(RestrictedSet.of(F3, 0), 4)


@pytest.mark.parametrize("block", [1, 97])
@pytest.mark.parametrize(
    "field,forbidden,n",
    [
        (F2, (), 10),
        (F2, (1,), 9),
        (F3, (), 7),
        (F3, (1,), 8),
        (F4, (), 5),
        (F4, (0, 3), 6),
        (F9, (), 3),
        (F9, (0, 8), 4),
        (F17, (), 3),
        (F17, tuple(range(12)), 4),
    ],
)
def test_block_size_leaves_the_sieve_unchanged(field, forbidden, n, block, monkeypatch):
    # tables and stages are cut into blocks of at most _BLOCK entries; the cut
    # must not show in the tables, the survivors or the count
    allowed = tuple(c for c in field.elements() if c not in forbidden)
    total = len(allowed) ** n
    R = RestrictedSet(field, frozenset(forbidden))
    tables = sieve.sieve_tables(field, n, allowed)
    survivors = sieve.sieve(tables, 0, total)
    count = count_restricted(R, n)
    monkeypatch.setattr(sieve, "_BLOCK", block)
    blocked = sieve.sieve_tables(field, n, allowed)
    assert blocked[0] == tables[0]
    for stages, stages_b in zip(tables[1:], blocked[1:], strict=True):
        for stage, stage_b in zip(stages, stages_b, strict=True):
            for a, b in zip(stage, stage_b, strict=True):
                assert a.dtype == b.dtype and np.array_equal(a, b)
    assert np.array_equal(sieve.sieve(blocked, 0, total), survivors)
    assert count_restricted(R, n) == count


def _candidate_rows(allowed, n):
    """Coefficient rows of the candidates of degree n, by candidate index."""
    return np.array(allowed, dtype=np.int64)[digits(np.arange(len(allowed) ** n), len(allowed), n)]


def _product_codes(field, A, G, powers):
    """The per-row reference for `sieve._codes`: the codes of the remainders mod
    every g of G of the polynomials sum_k A[:, k] t^powers[k], each row of A
    times the remainder bases in one product over F_q."""
    d = G.shape[1]
    basis = sieve.remainder_bases(field, G, powers.stop - 1)[:, powers.start :]
    rem = matmul(field, A, basis.transpose(1, 0, 2).reshape(len(powers), -1))
    codes = undigits(rem.reshape(len(A), -1, d), field.q)
    return codes.astype(np.min_scalar_type(field.q**d - 1))


def _table_rows(field, allowed, n):
    """The low and high rows of `sieve_tables`, by row index, with the powers of t
    they multiply: c_0..c_{h-1}, and minus c_h..c_{n-1} and minus the leading 1."""
    half = n // 2
    h = n - half
    neg = tuple(negate(field, np.array(allowed + (1,), dtype=np.int64)).tolist())
    high = _candidate_rows(neg[:-1], half)
    high = np.concatenate([high, np.full((len(high), 1), neg[-1], dtype=np.int64)], axis=1)
    low = (_candidate_rows(allowed, h), [allowed] * h, range(h))
    return low, (high, [neg[:-1]] * half + [neg[-1:]], range(h, n + 1))


@pytest.mark.parametrize("block", [1 << 16, 50])
@pytest.mark.parametrize(
    "field,forbidden,n",
    [
        (F2, (), 12),
        (F3, (1,), 11),
        (F4, (0,), 7),
        (F8, (7,), 6),
        (F9, (6, 8), 6),
        (F25, (0,), 4),
        (F27, (1,), 4),
        (F17, (0,), 4),
        (get_field(181), (0, *range(2, 180)), 3),  # digits 1, 180: sums past 2^15
    ],
)
def test_digit_by_digit_codes_equal_per_row_products(field, forbidden, n, block, monkeypatch):
    # a column at a time, in F_p sums reduced once or by the extension field's
    # tables, equals one product per row; 50 entries per block leave most
    # columns to the offset rows.  At q = 181 the census's own tables sum in int32.
    allowed = tuple(c for c in field.elements() if c not in forbidden)
    monkeypatch.setattr(sieve, "_BLOCK", block)
    for d in range(1, n // 2 + 1):
        G = irreducible_codes(field, d)
        for rows, columns, powers in _table_rows(field, allowed, n):
            bases = sieve.remainder_bases(field, G, powers.stop - 1)[:, powers.start :]
            expected = _product_codes(field, rows, G, powers)
            codes = np.empty_like(expected)
            sieve._codes(field, columns, bases, codes)
            assert np.array_equal(codes, expected)


@pytest.mark.parametrize(
    "p,columns,acc",
    [
        (3, 12, np.int16),
        (181, 1, np.int16),  # 180^2 = 32400, just below 2^15
        (181, 2, np.int32),
        (191, 1, np.int32),
        (46349, 1, np.int64),  # 46348^2 > 2^31
    ],
)
def test_codes_sum_in_the_narrowest_type_that_holds_them(p, columns, acc, monkeypatch):
    # the digits 1 and p - 1 against every linear g: at p = 181 the remainders
    # 170 and 121 of t and t^2 mod t - 170 sum past 2^15, and 46348^2 > 2^31
    field = get_field(p)
    dtypes = []
    column = sieve._column

    def recording_column(field, V, vals, r):
        V = column(field, V, vals, r)
        dtypes.append(V.dtype)
        return V

    monkeypatch.setattr(sieve, "_column", recording_column)
    G = np.arange(p, dtype=np.int64)[:, None]
    rows = _candidate_rows((1, p - 1), columns)
    bases = sieve.remainder_bases(field, G, columns)[:, 1:]
    expected = _product_codes(field, rows, G, range(1, columns + 1))
    codes = np.empty_like(expected)
    sieve._codes(field, [(1, p - 1)] * columns, bases, codes)
    assert set(dtypes) == {np.dtype(acc)}
    assert np.array_equal(codes, expected)


def _listed_survivors(field, allowed, n):
    """Indices of the candidates whose monic code is in the product-sieve list
    `irreducible_rows(field, n)`, which shares no code with the census."""
    weights = field.q ** np.arange(n)
    listed = polys.irreducible_rows(field, n) @ weights
    return np.flatnonzero(np.isin(_candidate_rows(allowed, n) @ weights, listed))


@pytest.mark.parametrize(
    "field,forbidden,n", [(F9, (6, 8), 6), (F3, (0,), 12), (F4, (0,), 7), (F5, (0,), 8)]
)
def test_mark_and_compare_stages_match_berlekamp(field, forbidden, n):
    # shapes where low degrees are marked through inverted tables and higher
    # ones compared; F_5 marks a degree at ratio 1.95, just under the rule's 2
    allowed = tuple(c for c in field.elements() if c not in forbidden)
    tables = sieve.sieve_tables(field, n, allowed)
    _, marks, compares = tables
    assert marks and compares
    expected = _listed_survivors(field, allowed, n)
    assert np.array_equal(sieve.sieve(tables, 0, len(allowed) ** n), expected)
    assert count_restricted(RestrictedSet(field, frozenset(forbidden)), n) == len(expected)


@pytest.mark.parametrize(
    "field,forbidden,n",
    [
        (F3, (0,), 12),
        (F4, (0,), 7),
        (F5, (0,), 8),
        (F2, (), 12),
        (F17, (0,), 4),
        (F9, (6, 8), 4),
        (F31, (0,), 4),
        (F8, (7,), 6),
    ],
)
def test_a_degree_is_inverted_exactly_when_its_inverse_is_small(field, forbidden, n):
    # a degree is marked exactly when its grid of q^d codes by m^(h-d) values of
    # the low digits past the first d holds at most twice the entries of its low
    # table; slot (j q^d + lowcode[L, j], L // m^d) holds L, and no two L share one
    allowed = tuple(c for c in field.elements() if c not in forbidden)
    split, marks, compares = sieve.sieve_tables(field, n, allowed)
    m, h = len(allowed), n - n // 2
    low = _candidate_rows(allowed, h)
    inverted = [len(inverse) // high.shape[1] for inverse, high in marks]
    for d in range(1, n // 2 + 1):
        size = field.q**d
        lowcode = _product_codes(field, low, irreducible_codes(field, d), range(h))
        assert (size in inverted) == (size * m ** (h - d) <= 2 * split)
        if size in inverted:
            inverse, high = marks[inverted.index(size)]
            assert inverse.shape == (lowcode.shape[1] * size, m ** (h - d))
            assert inverse.dtype == np.min_scalar_type(split) and high.dtype == lowcode.dtype
            slot = np.arange(lowcode.shape[1]) * size + lowcode.astype(np.int64)
            column = np.broadcast_to((np.arange(split) // m**d)[:, None], slot.shape)
            assert len(np.unique(slot * inverse.shape[1] + column)) == slot.size
            expected = np.full(inverse.shape, split)
            expected[slot, column] = np.arange(split)[:, None]
            assert np.array_equal(inverse, expected)
        else:
            assert any(
                table.dtype == high.dtype == lowcode.dtype and np.array_equal(lowcode, table)
                for table, high in compares
            )
    assert len(marks) + len(compares) == n // 2


def test_a_marked_degree_never_holds_its_low_table_whole():
    # at q = 11, R = {0}, n = 7 degree 3 is marked, and its low table would be
    # 10^4 x 440 uint16 (8.8 MB) against a high table of 0.9 MB; the build
    # scatters the low codes into the inverse a block at a time, so beyond the
    # tables it keeps it holds a few blocks of 2^16 int64 entries
    allowed = tuple(range(1, 11))
    for d in range(1, 4):
        irreducible_codes(F11, d)
    tracemalloc.start()
    try:
        split, marks, compares = sieve.sieve_tables(F11, 7, allowed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(inverse) // high.shape[1] for inverse, high in marks] == [11, 11**2, 11**3]
    low_table = split * prime_count(11, 3) * np.dtype(np.uint16).itemsize
    table_bytes = sum(table.nbytes for stage in marks + compares for table in stage)
    assert peak - table_bytes < 4 * (1 << 16) * 8 < low_table


@pytest.mark.parametrize("n", [6, 7])
def test_chunks_that_cut_high_rows(n, monkeypatch):
    # 37 is prime to m^h = 3^h, so every chunk but the first starts inside a
    # high row; marks gather and stages compare in odd blocks.  The 20 chunks
    # of n = 6 do not divide into 3 stripes.
    allowed = (1, 2, 3)
    R = RestrictedSet.of(F4, 0)
    expected = _listed_survivors(F4, allowed, n)
    monkeypatch.setattr(census, "_CHUNK", 37)
    monkeypatch.setattr(sieve, "_BLOCK", 29)
    tables = sieve.sieve_tables(F4, n, allowed)
    assert tables[0] == 3 ** (n - n // 2)
    found = [sieve.sieve(tables, lo, min(lo + 37, 3**n)) for lo in range(0, 3**n, 37)]
    assert np.array_equal(np.concatenate(found), expected)
    counts = [count_restricted(R, n, workers=w) for w in (1, 2, 3)]
    assert counts == [len(expected)] * 3


def test_census_working_set_is_its_tables_and_a_few_blocks():
    # beyond its tables, a census holds its chunk's indices and a few blocks of
    # 2^16 int64 entries: the remainder products of the table build and the
    # inverse entries that one stage marks.  Codes gathered for a whole chunk
    # against the 136 irreducibles of degree 2 would take ~9 MB here.
    R = RestrictedSet.of(F17, 0)
    count_restricted(R, 5)  # the irreducible lists of degrees 1 and 2
    tracemalloc.start()
    try:
        assert count_restricted(R, 5) == 222560
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    _, marks, compares = sieve.sieve_tables(F17, 5, tuple(range(1, 17)))
    table_bytes = sum(table.nbytes for stage in marks + compares for table in stage)
    assert peak - table_bytes < 4 * (1 << 16) * 8


def test_budget_error_names_the_budget():
    R = RestrictedSet.of(F5, 0)
    with pytest.raises(BudgetError, match="100"):
        count_restricted(R, 4, budget=100)


# ---------------------------------------------------------------------------
# reports

def test_report_fields():
    R = RestrictedSet.of(F3, 0)
    rep = census_report(R, 4)
    assert rep.q == 3 and rep.s == 1 and rep.n == 4
    assert rep.exact == count_restricted(R, 4)
    assert rep.forbidden == (0,)
    assert rep.error is None
    expected_ratio = rep.exact * 4 * 2 / (3 * 2**4)
    assert abs(rep.ratio - expected_ratio) < 1e-12
    assert rep.elapsed >= 0


def test_report_budget_exceeded_row():
    R = RestrictedSet.of(F5, 0)
    rep = census_report(R, 4, budget=10)
    assert rep.exact is None
    assert rep.ratio is None
    assert rep.error is not None
    assert rep.predictor > 0  # prediction survives the failed enumeration


def test_scan_sorted_and_error_isolated():
    R = RestrictedSet.of(F5, 0)
    reports = scan(R, [6, 2, 4], budget=1000)
    assert [rep.n for rep in reports] == [2, 4, 6]
    assert reports[0].error is None and reports[1].error is None
    assert reports[2].error is not None  # 4^6 > 1000, row kept


def test_csv_columns(tmp_path):
    R = RestrictedSet.of(F3, 0)
    path = tmp_path / "out.csv"
    with path.open("w", newline="") as fh:
        write_csv(scan(R, [2, 3]), fh)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(REPORT_COLUMNS)
    assert len(lines) == 3
    first = dict(zip(REPORT_COLUMNS, lines[1].split(",")))
    assert first["q"] == "3" and first["n"] == "2" and first["exact"] == "2"


def test_json_budget_total_null_below_n3(tmp_path):
    path = tmp_path / "out.jsonl"
    with path.open("w") as fh:
        write_json(scan(RestrictedSet.of(F3, 0), [1, 2, 3]), fh)
    totals = [json.loads(line)["budget_total"] for line in path.read_text().splitlines()]
    assert totals == [None, None, 12.584842055135661]


def test_json_round_trip(tmp_path):
    R = RestrictedSet.of(F3, 0)
    reports = scan(R, [2, 3])
    path = tmp_path / "out.jsonl"
    with path.open("w") as fh:
        write_json(reports, fh)
    lines = path.read_text().strip().splitlines()
    assert lines == [report_json_line(rep) for rep in reports]
    rec = json.loads(lines[0])
    assert set(rec) == set(REPORT_COLUMNS)
    assert rec["exact"] == 2


def test_json_line_deterministic():
    R = RestrictedSet.of(F2, 0)
    rep = census_report(R, 3)
    assert report_json_line(rep) == report_json_line(rep)
    rec = json.loads(report_json_line(rep))
    assert rec["forbidden"] == "0"


# ---------------------------------------------------------------------------
# resource bounds, checked in a capped child so a regression fails fast

SRC = Path(__file__).resolve().parents[1] / "src"


def _run_capped(args, timeout=60):
    """Run a fresh interpreter with its address space capped at 2 GiB."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, *args],
        preexec_fn=cap,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize("forbid,n", [("", 40), ("0", 63)])
def test_int64_decode_limit_exits_budget(forbid, n):
    # 3^40 and 2^63 candidates reach 2^63, past the int64 candidate decode,
    # so the census refuses them before any chunk exists, whatever --budget says
    proc = _run_capped(
        ["-m", "ffdigits.cli", "count", "--q", "3", "--forbid", forbid,
         "--n", str(n), "--budget", str(10**30)]
    )
    assert proc.returncode == 4, proc.stderr
    assert "2^63" in proc.stderr


def test_out_of_memory_exits_budget():
    # 3^39 candidates within a budget of 10^30 need 26 GiB of tables; the
    # allocation fails under the cap, which ends in exit 4, not a traceback
    proc = _run_capped(
        ["-m", "ffdigits.cli", "count", "--q", "3", "--n", "39", "--budget", str(10**30)]
    )
    assert proc.returncode == 4, proc.stderr
    assert "out of memory" in proc.stderr and "--budget" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("workers", [1, 2])
def test_first_chunk_starts_at_once(workers):
    # 3^39 candidates are 1.2e14 chunks: the first must start without the rest
    # being built.  The tables of this shape would take 26 GiB, so they are
    # stubbed; the census builds them before its first chunk.
    code = f"""
from ffdigits import census
from ffdigits.charsum import RestrictedSet
from ffdigits.field import get_field

def first_chunk(tables, start, stop):
    raise RuntimeError(f"first chunk at {{start}}")

census.sieve = first_chunk
census.sieve_tables = lambda field, n, allowed: None
try:
    census.count_restricted(
        RestrictedSet(get_field(3), frozenset()), 39, workers={workers}, budget=10**30
    )
except RuntimeError as exc:
    print(exc)
"""
    proc = _run_capped(["-c", code], timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "first chunk at 0"


@pytest.mark.parametrize(
    "q,forbid,n",
    [
        (2, "1", 70),  # one candidate; Rabin lists to degree 35
        (17, ",".join(map(str, range(3, 17))), 16),  # 3^16 candidates; 17^8 tests
        (17, ",".join(map(str, range(3, 17))), 12),  # 17^6 tests; 6e9 table codes
    ],
)
def test_sieve_tables_within_budget(q, forbid, n):
    proc = _run_capped(
        ["-m", "ffdigits.cli", "count", "--q", str(q), "--forbid", forbid, "--n", str(n)],
        timeout=10,
    )
    assert proc.returncode == 4, proc.stderr
    assert str(DEFAULT_BUDGET) in proc.stderr
