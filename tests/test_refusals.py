"""Every input nvwear refuses, run through the CLI's ``main`` with its exact message,
and the accepted neighbours of some. A refused input (a config value, a flag, a trace
line, a path) exits 2, writes nothing to stdout, prints exactly ``error: <message>``
on stderr and leaves no file behind: no output directory, trace or temp file. Each
case runs in a fresh directory, so its messages name files as it gave them."""

import shlex

import pytest

from nvwear.cli import main

from helpers import SMALL_CACHE, small_ini

SMALL = small_ini()
STATIC = small_ini("static")
# past the first 8 KiB, so a line counted within one decoder chunk would differ
LATIN = (SMALL_CACHE + "# padding\n" * 1000 + "# café\n").encode("latin-1")  # café: line 1007
ONE_COLOR = ("[cache]\nsize_bytes = 512\nassociativity = 2\nblock_bytes = 64\npage_bytes = 256\n"
             "[workload]\nevents = 100\npages = 4\n")
BOTH_DIRS = {"b.ini": STATIC + "\n[output]\ndir = o_base\n",
             "t.ini": SMALL + "\n[output]\ndir = o_tech\n"}
INT = "invalid literal for int() with base 10:"
OVERFLOW = "their zipf weights overflow"
KINDS = "uniform|zipf|hotset|roundrobin|trace"
LINE = "expected [section] or key = value, got"
HEX = "address must be 0x-prefixed hex, got"
FIELDS = "expected 'R|W 0xADDR ICOUNT', got"
SIGNS = "'_' and signs are not allowed in numbers, got"
EXISTS = "[Errno 17] File exists: 'afile'"  # named as given, not as an absolute path


def _bad(section, key, value):  # the files and argv of a run setting one key on line 2
    return {"bad.ini": f"[{section}]\n{key} = {value}\n"}, "run --config bad.ini --out o"


def _small(flags, trace=None):  # a run of the small 4-color config plus flags (and bad.trace)
    files = {"cfg.ini": SMALL} if trace is None else {"cfg.ini": SMALL, "bad.trace": trace}
    return files, f"run --config cfg.ini {flags} --out o"


def _ini(name, text, argv="--out o"):
    return {name: text}, f"run --config {name} {argv}"


def _trace(text):
    return {"t.trace": text}, "run --trace t.trace"


# One row per refused input: an id, the files the case starts with (text, or
# bytes written as they are), the argv of nvwear as a shell line, and the
# message that follows "error: ".
REFUSALS = (
    # the INI grammar
    ("unknown-section", *_ini("bad.ini", "[tuning]\nx = 1\n", ""),
     "bad.ini:1: unknown section [tuning]"),
    ("unknown-key", *_ini("bad.ini", "[cache]\nsize = 4M\n", ""),
     "bad.ini:2: unknown key 'size' in [cache]"),
    ("default-section", *_ini("d.ini", "[DEFAULT]\nevents = 5\n"),
     "d.ini:1: unknown section [DEFAULT]"),
    ("default-then-workload", *_ini("d.ini", "[DEFAULT]\nevents = 5\n[workload]\nkind = zipf\n"),
     "d.ini:1: unknown section [DEFAULT]"),
    ("default-then-policy", *_ini("d.ini", "[DEFAULT]\nevents = 5\n[policy]\nkind = static\n"),
     "d.ini:1: unknown section [DEFAULT]"),
    # not a continuation of dir, which would name the directory "out\npages = 8"
    ("indented-line", *_ini("e.ini", "[workload]\nevents = 10\n[output]\ndir = out\n  pages = 8\n"),
     "e.ini:5: unknown key 'pages' in [output]"),
    ("colon", *_ini("g.ini", "[workload]\nevents: 10\n"), f"g.ini:2: {LINE} 'events: 10'"),
    ("key-before-section", *_ini("g.ini", "events = 10\n[workload]\n"),
     "g.ini:1: key 'events' before any section"),
    ("repeated-key", *_ini("g.ini", "[workload]\nevents = 10\n# two\nevents = 20\n"),
     "g.ini:4: repeated key 'events' in [workload]"),
    ("repeated-section", *_ini("g.ini", "[workload]\n[policy]\n\n[workload]\n"),
     "g.ini:4: repeated section [workload]"),
    ("key-case", *_ini("g.ini", "[cache]\nSize_Bytes = 2M\n"),
     "g.ini:2: unknown key 'Size_Bytes' in [cache]"),
    ("section-case", *_ini("g.ini", "[Policy]\nkind = static\n"),
     "g.ini:1: unknown section [Policy]"),
    ("no-key", *_ini("g.ini", "[workload]\n= 10\n"), f"g.ini:2: {LINE} '= 10'"),
    ("no-value", *_ini("g.ini", "[workload]\nevents\n"), f"g.ini:2: {LINE} 'events'"),
    ("not-utf-8", *_ini("latin.ini", LATIN), "latin.ini:1007: not UTF-8: byte 0xe9"),
    ("not-utf-8-technique", {"base.ini": STATIC, "tech.ini": LATIN},
     "compare base.ini tech.ini --out cmp", "tech.ini:1007: not UTF-8: byte 0xe9"),
    # a value's form, in a file and by a flag; a word that is ignored is still checked
    ("malformed-int", *_bad("cache", "associativity", "abc"),
     f"bad.ini:2: [cache] associativity: {INT} 'abc'"),
    ("malformed-float", *_bad("policy", "beta", "high"),
     "bad.ini:2: [policy] beta: could not convert string to float: 'high'"),
    ("malformed-size", *_bad("cache", "size_bytes", "4.5M"),
     "bad.ini:2: [cache] size_bytes: cannot parse size '4.5M'"),
    ("malformed-bool", *_bad("policy", "count_fills", "maybe"),
     "bad.ini:2: [policy] count_fills: cannot parse boolean 'maybe' (use on/off)"),
    ("malformed-events", *_ini("bad.ini", "[workload]\nevents = plenty\n", ""),
     f"bad.ini:2: [workload] events: {INT} 'plenty'"),
    ("malformed-lambda-flag", {}, "run --lambda many", f"override lambda: {INT} 'many'"),
    ("malformed-k-flag", {}, "run --k abc --events 10 --out o", f"override k: {INT} 'abc'"),
    ("empty-value", *_ini("bad.ini", "[workload]\ntrace =\n"),
     "bad.ini:2: [workload] trace: empty value"),
    ("empty-flag", {}, "run --events 100 --out ''", "override out: empty value"),
    ("mode-bogus-flag", {}, "run --policy static --swap-limit-mode bogus --events 10 --out o",
     "override swap_limit_mode: 'bogus' is not one of min|max"),
    ("mode-bogus",
     *_ini("s.ini", "[policy]\nkind = static\nswap_limit_mode = bogus\n", "--events 10 --out o"),
     "s.ini:3: [policy] swap_limit_mode: 'bogus' is not one of min|max"),
    ("kind-bogus-flag", {"t.trace": "W 0x40 5\n"}, "run --trace t.trace --kind bogus --out o",
     f"override workload_kind: 'bogus' is not one of {KINDS}"),
    ("kind-bogus",
     {"t.trace": "W 0x40 5\n", "w.ini": "[workload]\nkind = bogus\ntrace = t.trace\n"},
     "run --config w.ini --out o", f"w.ini:2: [workload] kind: 'bogus' is not one of {KINDS}"),
    ("gen-lambda-form", {"p.ini": "[policy]\nlambda = abc\n"},
     "gen-trace out.trace --config p.ini", f"p.ini:2: [policy] lambda: {INT} 'abc'"),
    ("gen-policy-kind", {"p.ini": "[policy]\nkind = bogus\n"}, "gen-trace out.trace --config p.ini",
     "p.ini:2: [policy] kind: 'bogus' is not one of swl|static|xor"),
    # a value's range, named by the file line that gave it
    ("size-not-a-power-of-two", *_bad("cache", "size_bytes", "3000"),
     "bad.ini:2: [cache] size_bytes must be a positive power of two, got 3000"),
    ("write-fraction-above-1", *_bad("workload", "write_fraction", "2"),
     "bad.ini:2: [workload] write_fraction must lie in [0, 1]"),
    ("beta-negative", *_bad("policy", "beta", "-1"), "bad.ini:2: [policy] beta must be >= 0"),
    ("beta-nan", *_bad("policy", "beta", "nan"), "bad.ini:2: [policy] beta must be >= 0"),
    ("zipf-s-nan", *_bad("workload", "zipf_s", "nan"), "bad.ini:2: [workload] zipf_s must be >= 0"),
    ("zipf-s-400", *_bad("workload", "zipf_s", "400"),
     f"bad.ini:2: [workload] zipf_s is too large for 256 pages: {OVERFLOW}"),
    ("zipf-s-inf", *_bad("workload", "zipf_s", "inf"),
     f"bad.ini:2: [workload] zipf_s is too large for 256 pages: {OVERFLOW}"),
    ("events-negative", *_bad("workload", "events", "-5"),
     "bad.ini:2: [workload] events must be >= 0"),
    ("seed-negative", *_bad("workload", "seed", "-5"), "bad.ini:2: [workload] seed must be >= 0"),
    ("lambda-0", *_bad("policy", "lambda", "0"),
     "bad.ini:2: [policy] lambda must lie in [1, 32] for 64 colors, got 0"),
    ("read-hit-cycles-negative", *_bad("cache", "read_hit_cycles", "-1"),
     "bad.ini:2: [cache] read_hit_cycles must be non-negative"),
    # a float of it overflows: refused on pages, not as a zipf_s overflow
    ("pages-2^1100", *_bad("workload", "pages", 2 ** 1100),
     "bad.ini:2: [workload] pages must lie in [1, 2^48]"),
    ("file-value-names-its-line",
     *_ini("bad.ini", "# a comment\n[cache]\nsize_bytes = 4M\n\n[policy]\nbeta = -1\n"),
     "bad.ini:6: [policy] beta must be >= 0"),
    ("address-space", *_ini("exp.ini", f"[workload]\npages = {2 ** 37}\n"),
     "exp.ini:2: [workload] pages * page_size_bytes exceeds the 2^48 address space"),
    ("zipf-pages", *_ini("exp.ini", f"[workload]\nkind = zipf\npages = {2 ** 24 + 1}\n"),
     "exp.ini:3: [workload] pages must be <= 2^24 for zipf (64 B per page)"),
    ("cache-above-2^24-blocks", *_ini("big.ini", "[cache]\nsize_bytes = 64G\n"),
     "big.ini:2: [cache] size_bytes must hold at most 2^24 blocks"),
    # 2^24 blocks, within the block bound, but one set each
    ("cache-above-2^20-sets", *_ini("sets.ini", "[cache]\nsize_bytes = 1G\nassociativity = 1\n"),
     "sets.ini:2: [cache] size_bytes must hold at most 2^20 sets"),
    ("no-trace-path", *_ini("t.ini", "[workload]\nkind = trace\n", ""),
     "t.ini:2: [workload] kind 'trace' requires a trace path"),
    ("one-color-swl", *_ini("one.ini", ONE_COLOR, "--policy swl --out o"),
     "one.ini: wear-leveling needs at least 2 colors"),
    ("gen-trace-of-a-trace-config", {"t.ini": "[workload]\ntrace = some.trace\n"},
     "gen-trace out.trace --config t.ini",
     "t.ini:2: [workload] trace is set, but gen-trace needs a generator workload"),
    # a value's range, named by the flag's override key and not by the file
    ("beta-negative-flag", *_small("--beta -1"), "override beta must be >= 0"),
    ("beta-nan-flag", *_small("--beta nan"), "override beta must be >= 0"),
    ("zipf-s-nan-flag", *_small("--zipf-s nan"), "override zipf_s must be >= 0"),
    ("zipf-s-600-flag", *_small("--zipf-s 600"),
     f"override zipf_s is too large for 4 pages: {OVERFLOW}"),
    ("zipf-s-inf-flag", {}, "run --zipf-s inf --out o",
     f"override zipf_s is too large for 256 pages: {OVERFLOW}"),
    ("events-negative-flag", *_small("--events -5"), "override events must be >= 0"),
    ("seed-negative-flag", {}, "run --seed -5 --out o", "override seed must be >= 0"),
    ("lambda-99-flag", *_small("--lambda 99"),
     "override lambda must lie in [1, 2] for 4 colors, got 99"),
    ("pages-2^1100-flag", *_small(f"--pages {2 ** 1100}"), "override pages must lie in [1, 2^48]"),
    ("k-0-flag", {}, "run --k 0", "override k must be >= 1"),
    ("min-gap-negative-flag", {}, "run --min-gap-cycles -1 --events 10 --out o",
     "override min_gap_cycles must be >= 0"),
    ("address-space-flag", {}, f"run --pages {2 ** 37} --out o",
     "override pages * page_size_bytes exceeds the 2^48 address space"),
    ("zipf-pages-flag", {}, f"run --kind zipf --pages {2 ** 24 + 1} --out o",
     "override pages must be <= 2^24 for zipf (64 B per page)"),
    ("no-trace-path-flag", {}, "run --kind trace",
     "override workload_kind 'trace' requires a trace path"),
    # compare's pairing of two configs
    ("compare-seeds-differ", {"b.ini": STATIC, "t.ini": STATIC.replace("seed = 5", "seed = 6")},
     "compare b.ini t.ini --out cmp",
     "compare: workloads differ (same generator spec, seed, and trace are required)"),
    ("compare-caches-differ",
     {"b.ini": SMALL, "t.ini": SMALL.replace("associativity = 2", "associativity = 1")},
     "compare b.ini t.ini --out cmp", "compare: cache configurations differ"),
    ("compare-fills-differ", {"b.ini": STATIC, "t.ini": small_ini("static", "count_fills = off\n")},
     "compare b.ini t.ini --out cmp",
     "compare: count_fills differs, write counts would not be comparable"),
    ("compare-dirs-differ", BOTH_DIRS, "compare b.ini t.ini",
     "compare: b.ini and t.ini name different [output] dirs ('o_base', 'o_tech'); "
     "give --out or make them agree"),
    # selftest's counts and seed
    ("selftest-cases--1", {}, "selftest --cases -1", "selftest --cases must be >= 1, got -1"),
    ("selftest-cases-0", {}, "selftest --cases 0", "selftest --cases must be >= 1, got 0"),
    ("selftest-ops-0", {}, "selftest --ops 0", "selftest --ops must be >= 1, got 0"),
    ("selftest-seed--1", {}, "selftest --seed -1", "selftest --seed must be >= 0, got -1"),
    # files that cannot be read or written
    ("no-config", {}, "run --config nope.ini", "[Errno 2] No such file or directory: 'nope.ini'"),
    ("no-trace-file", *_small("--trace nope.trace"),
     "[Errno 2] No such file or directory: 'nope.trace'"),
    ("out-is-a-file", {"afile": ""}, "run --events 10 --out afile", EXISTS),
    ("trace-under-a-file", {"afile": ""}, "gen-trace afile/x.trace --events 10", EXISTS),
    # trace lines
    ("trace-unknown-kind", *_trace("X 0x0 0\n"), "t.trace:1: unknown kind 'X'"),
    ("trace-error-names-its-line", *_trace("R 0x0 0\nR zzz 1\n"), f"t.trace:2: {HEX} 'zzz'"),
    ("trace-no-hex-prefix", *_trace("R 1f40 0\n"), f"t.trace:1: {HEX} '1f40'"),
    ("trace-two-fields", *_trace("R 0x0\n"), f"t.trace:1: {FIELDS} 'R 0x0'"),
    ("trace-four-fields", *_trace("R 0x0 0 9\n"), f"t.trace:1: {FIELDS} 'R 0x0 0 9'"),
    ("trace-address-above-2^48", *_trace(f"R 0x{1 << 49:x} 0\n"), "t.trace:1: address above 2^48"),
    ("trace-icount-decreases", *_trace("R 0x0 10\nR 0x40 9\n"),
     "t.trace:2: instruction count decreased (10 -> 9)"),
    ("trace-icount-word", *_trace("R 0x0 ten\n"), "t.trace:1: bad instruction count 'ten'"),
    ("trace-address-1_0", *_trace("R 0x0 0\nW 0x1_0 10\n"), f"t.trace:2: {SIGNS} 'W 0x1_0 10'"),
    ("trace-address-0x_10", *_trace("R 0x0 0\nW 0x_10 10\n"), f"t.trace:2: {SIGNS} 'W 0x_10 10'"),
    ("trace-icount-1_0", *_trace("R 0x0 0\nW 0x10 1_0\n"), f"t.trace:2: {SIGNS} 'W 0x10 1_0'"),
    ("trace-icount-plus", *_trace("R 0x0 0\nR 0x20 +20\n"), f"t.trace:2: {SIGNS} 'R 0x20 +20'"),
    ("trace-icount-minus-0", *_trace("R 0x0 0\nR 0x20 -0\n"), f"t.trace:2: {SIGNS} 'R 0x20 -0'"),
    # int() accepts '_' and signs, so the older errors come first
    ("trace-negative-icount", *_trace("R 0x0 20\nR 0x10 -5\n"),
     "t.trace:2: negative instruction count"),
    ("trace-negative-address", *_trace("R 0x0 20\nR 0x-10 5\n"),
     "t.trace:2: bad hex address '0x-10'"),
    ("trace-separator-and-icount-word", *_trace("R 0x0 20\nR 0x1_0 zz\n"),
     "t.trace:2: bad instruction count 'zz'"),
    ("trace-separators-and-decrease", *_trace("R 0x0 20\nR 0x1_0 1_0\n"),
     "t.trace:2: instruction count decreased (20 -> 10)"),
    ("trace-non-ascii-event", *_trace(b"R 0x0 0\nW 0x40 5 caf\xe9\n"),
     "t.trace:2: non-ASCII byte 0xe9"),
    ("trace-non-ascii-comment", *_trace(b"R 0x0 0\n# caf\xe9\nW 0x40 5\n"),
     "t.trace:2: non-ASCII byte 0xe9"),
    # the same errors in a run of a config
    ("trace-unknown-kind-in-a-run", *_small("--trace bad.trace", "R 0x0 0\nX 0x40 5\n"),
     "bad.trace:2: unknown kind 'X'"),
    ("trace-non-ascii-in-a-run", *_small("--trace bad.trace", b"R 0x0 0\nR 0x40 5\nW 0x\xe980 9\n"),
     "bad.trace:3: non-ASCII byte 0xe9"),
    ("trace-separators-in-a-run", *_small("--trace bad.trace", "R 0x0 0\nW 0x1_0 1_0\n"),
     f"bad.trace:2: {SIGNS} 'W 0x1_0 1_0'"),
)

# One row per accepted neighbour of a refusal: an id, the files, the argv, and
# a file the run makes with a piece of text it must hold.
ACCEPTED = (
    ("pages-2^36", {}, f"run --pages {2 ** 36} --events 10 --out o",
     "o/summary.md", f"- workload: uniform n=10 wf=0.5 pages={2 ** 36}\n"),
    ("static-k-0", {}, "run --policy static --k 0 --events 10 --out o",
     "o/summary.md", "- policy: static (beta=75, lambda=16, K=0,"),
    ("one-color-static", *_ini("one.ini", ONE_COLOR, "--policy static --out o"),
     "o/summary.md", "(1 colors x 4 sets)"),
    ("kind-trace", {"t.trace": "W 0x40 5\n"}, "run --kind trace --trace t.trace --out o",
     "o/report.csv", "\nswl,,trace:t.trace,"),
    ("compare-out", BOTH_DIRS, "compare b.ini t.ini --out both",
     "both/report.csv", "\nstatic,5,hotset n=20000 "),
    # no window's spread reaches an infinite beta, so the gate never opens
    ("beta-inf", {}, "run --beta inf --k 1 --min-gap-cycles 0 --events 20 --out o",
     "o/summary.md", "- policy: swl (beta=inf,"),
)


def _start(path, monkeypatch, files, argv):  # main's exit status, in path with files
    monkeypatch.chdir(path)
    monkeypatch.delenv("NVWEAR_LOG", raising=False)  # no diagnostics on stderr
    for name, content in files.items():
        (path / name).write_bytes(content if isinstance(content, bytes) else content.encode())
    return main(shlex.split(argv))


def _refused(path, monkeypatch, capsys, files, argv, message):
    assert _start(path, monkeypatch, files, argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert sorted(p.name for p in path.iterdir()) == sorted(files)


def _accepted(path, monkeypatch, capsys, files, argv, made, text):
    assert _start(path, monkeypatch, files, argv) == 0
    assert capsys.readouterr().err == ""
    assert text in (path / made).read_text()


@pytest.mark.parametrize("row", REFUSALS, ids=[row[0] for row in REFUSALS])
def test_refused_with_exit_2_naming_the_source(tmp_path, monkeypatch, capsys, row):
    _refused(tmp_path, monkeypatch, capsys, *row[1:])


@pytest.mark.parametrize("row", ACCEPTED, ids=[row[0] for row in ACCEPTED])
def test_accepted_with_exit_0(tmp_path, monkeypatch, capsys, row):
    _accepted(tmp_path, monkeypatch, capsys, *row[1:])


_ROWS = {r[0]: (_refused, r[1:]) for r in REFUSALS} | {r[0]: (_accepted, r[1:]) for r in ACCEPTED}


def folded(*rows, **cases):
    """A test kept under its name from before these tables, as a method of its
    old class, that runs the rows it was folded into: ``rows`` in one test, or
    one case per old parameter id in ``cases`` (id: its rows, blank-separated)."""
    def test(self, tmp_path, monkeypatch, capsys, case):
        for row in case.split():
            (tmp_path / row).mkdir()
            _ROWS[row][0](tmp_path / row, monkeypatch, capsys, *_ROWS[row][1])
    if cases:
        return pytest.mark.parametrize("case", [*cases.values()], ids=[*cases])(test)

    def test_rows(self, tmp_path, monkeypatch, capsys):
        test(self, tmp_path, monkeypatch, capsys, " ".join(rows))
    return test_rows
