"""Compare two gframemod source trees invocation by invocation.

    python3 tools/byte_sweep.py [--threads N] OLD_SRC NEW_SRC

Every invocation runs twice as a subprocess, `python3 -m gframemod.cli ...`
with PYTHONPATH set to one tree's `src/` directory and BLAS on one thread.
`--threads N` runs NEW_SRC under N BLAS threads instead, so that
`--threads 2 SRC SRC` compares one tree under one and under two threads.
The sweep compares exit codes, standard output, standard error (with the
tree's path replaced by a placeholder) and any document written, then
prints every invocation whose results differ and a summary line.  It exits
1 when any differ.

Where both sides wrote JSON (a report on standard output, or a document)
that differs, each difference is listed by its key path, for example
`results.witness.lhs` or `results.coefficients[2]`, in one of three classes.
Numbers are compared as written, so `-0` and `0` differ.  Float
differences are listed once per path with list indices dropped
(`results.coefficients[][]`), with their count and largest distance.

* structural: an exit code, standard error or non-JSON output, a key
  present on one side only, a list length, a boolean, string or null, an
  integer (a number written with no `.` or exponent on both sides), or
  which entries of a list of [re, im] pairs are exactly [1, 0];
* large float: any other number that moved by more than LARGE_FLOAT_ULPS
  units in the last place, such as rounding noise printed as a value;
* float: any other number, with its distance in units in the last place.

An invocation whose differing outputs parse to equal JSON values, numbers
compared as written, lists no key path; it is marked `layout only (same
JSON value)`: only whitespace moved.

The summary line counts the invocations with a structural difference and
those with a large float move.

A warm pass follows: every invocation runs once more under NEW_SRC, with
the frame-document sidecars (`__gframemod_cache__/`) that the first pass
left, and must repeat NEW_SRC's first-pass exit code, standard output,
standard error and written document exactly.  Each invocation that does
not is printed as `WARM DIFFERS`, and the pass's own summary line comes
before the sweep's.  The corpus is copied into the scratch directory
first, so that each corpus document's first read finds no sidecar and the
repository gets none.

Invocations:

* every frame document under `corpus/`, under `analyze`, `independence`,
  `represent` (plain and `--check-theorem21`, each with no, linear and
  cyclic `--convention`), `represent --tight-certificate` with the corpus
  unit vector, and `perturb` against itself, a pass pair and a witness
  pair, the pass pair once more with `--beta 0.05`, and the
  self-perturbation and the pass pair once more with `--interpretation
  hat_original`;
* `perturb --samples 0` and `--samples -3`, and the orbit document with
  every operator entry scaled by 1e-200 under every command;
* flag errors, which come before any document is read: `represent
  --vector` without `--tight-certificate` on the orbit document, and
  `represent --tight-certificate` without `--vector`, `perturb --samples 0`
  and `perturb --eta 1.5` on the single-member document, which is no frame;
* `--seed -1` under `represent --check-theorem21` and `perturb` of the
  orbit document, and under `gen` of every kind (a negative seed is
  refused);
* `gen` of every kind at the benchmark sizes, with seeds 1 and 2 (the
  written documents are compared), and every command above on each
  document that the old tree wrote, with a unit vector of its shape for the
  certificate;
* `gen` of every kind at n = d = m = 1, where Y_0 = P_0 for all but
  `random`, and `fusion` at m = n*d for the benchmark's (n, d), where
  every part has rank 1: documents that repeat matrices, which the writer
  formats once;
* `perturb` of the seed-1 document against the seed-2 document of every
  kind and size: a pair of no factor form, so that the sampled path stays
  in the sweep when the factor certificate decides the scaled pairs;
* at n = d = 2 and m = LARGE_M, far more members than the (n*d)^2 = 16
  operator dimensions: `independence` of the seed-1 `unitary-orbit` and
  `dilation` documents, and `perturb` of each kind's seed-1 document
  against its seed-2 document (no factor form), so that the dependency
  analysis and the sampler run where they keep 16 of the null
  combinations;
* `perturb --eta MAXIMIZER_ETA` of the seed-1 `random` document at
  n = d = 2, m = 4 against a nudged copy, Y + 1e-3 G P per element with a
  seeded Gaussian G: its sampled worst margin is negative and the best
  sequence at the worst sample's row turns it positive, so the per-row
  maximizer decides the verdict; and the same pair once more with
  `--beta BETA`, so that the maximizer also runs with beta > 0;
* every command above on the seed-ROUNDED_SEED `random` document at
  n = d = 2, m = 4 with every entry rounded to ROUNDED_DIGITS significant
  digits, as a document typed by hand would be: each member stays within
  CONTAINMENT_TOL of its submodule, and its canonical dual, at B/A = 68,
  carries a defect beyond it, so a containment check of derived frames
  would show;
* the parser's help, usage and error output (`PARSER_INVOCATIONS`, at
  `COLUMNS=80`): no arguments, `-h` and every `<command> -h`, an unknown
  command, an abbreviated one, a flag before the command, an unknown flag,
  a missing argument and a missing flag value, a bad choice and a bad
  integer.

The kinds, the (n, d, m) sizes and the perturbation size are read from
`perfbench/workloads.py`, so the sweep covers what the benchmark runs.
Two invocations run at once.

Derived documents (pairs, scaled, nudged and rounded copies, vectors) are built
with the standard library from the JSON lists, so the sweep imports no
numpy.
"""

import argparse
import importlib.util
import json
import os
import random
import re
import shutil
import struct
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(ROOT, "corpus")


def _load_workloads():
    """perfbench/workloads.py, loaded by path (it imports only the standard
    library at load time)."""
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


_WORKLOADS = _load_workloads()
KINDS = _WORKLOADS.KINDS
SIZES = sorted({(w.n, w.d, w.m) for w in _WORKLOADS.WORKLOADS.values()})
ETA = _WORKLOADS.ETA
BETA = 0.05  # the corpus pass pairs also run with beta > 0
MAXIMIZER_ETA = 0.05  # the nudged random pair passes its samples and fails at the maximizer
SEEDS = (1, 2)
ROUNDED_SEED, ROUNDED_DIGITS = 296, 9  # a rounded random document whose dual magnifies the rounding
LARGE_M = 1024  # members of the large documents, at n = d = 2
LARGE_KINDS = ("unitary-orbit", "dilation")
JOBS = 2
LARGE_FLOAT_ULPS = 10 ** 6  # a float move beyond this many ulps is more than a last-digit move
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ENV = {"COLUMNS": "80"}
COMMANDS = ("analyze", "represent", "perturb", "gen", "independence")
PARSER_INVOCATIONS = (
    [], ["-h"], *([command, "-h"] for command in COMMANDS),
    ["bogus"], ["ana", "x"], ["--seed", "1", "analyze", "x"],
    ["analyze", "x", "--tol", "1"], ["analyze"], ["analyze", "--output"],
    ["represent", "f", "--convention", "zz"], ["gen", "--kind", "fusion", "--n", "x", "o"],
)


def run(src: str, argv, out_path=None, threads: int = 1):
    """(exit code, stdout, stderr, written bytes) of one invocation, with
    BLAS on `threads` threads."""
    env = {k: v for k, v in os.environ.items() if k != "GFRAMEMOD_SEED"}
    env.update(ENV, PYTHONPATH=src)
    env.update((name, str(threads)) for name in THREAD_VARIABLES)
    if out_path and os.path.exists(out_path):
        os.unlink(out_path)
    proc = subprocess.run([sys.executable, "-m", "gframemod.cli", *argv],
                          capture_output=True, env=env, check=False)
    written = None
    if out_path and os.path.exists(out_path):
        with open(out_path, "rb") as handle:
            written = handle.read()
    stderr = proc.stderr.replace(os.path.abspath(src).encode(), b"<src>")
    return proc.returncode, proc.stdout, stderr, written


def _scaled(doc: dict, factor: float) -> dict:
    """The frame document with every operator entry multiplied by factor."""
    elements = [{"projection": el["projection"],
                 "operator": [[[factor * re, factor * im] for re, im in row]
                              for row in el["operator"]]}
                for el in doc["elements"]]
    return dict(doc, elements=elements)


def _nudged(doc: dict, size: float, seed: int) -> dict:
    """The frame document with size * G P added to every operator, for a
    seeded complex Gaussian G and the element's projection P, so that the
    rows of the change stay in the element's submodule."""
    rng = random.Random(seed)
    elements = []
    for el in doc["elements"]:
        proj = [[complex(re, im) for re, im in row] for row in el["projection"]]
        dim = len(proj)
        gauss = [[complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(dim)]
                 for _ in range(dim)]
        operator = [[complex(re, im) + size * sum(gauss[i][k] * proj[k][j] for k in range(dim))
                     for j, (re, im) in enumerate(row)] for i, row in enumerate(el["operator"])]
        elements.append({"projection": el["projection"],
                         "operator": [[[z.real, z.imag] for z in row] for row in operator]})
    return dict(doc, elements=elements)


def _rounded(doc: dict, digits: int) -> dict:
    """The frame document with every projection and operator entry rounded
    to `digits` significant digits."""
    def matrix(rows):
        return [[[float(f"{part:.{digits}g}") for part in entry] for entry in row] for row in rows]
    return dict(doc, elements=[{key: matrix(rows) for key, rows in el.items()}
                               for el in doc["elements"]])


def _unit_vector(n: int, d: int) -> dict:
    identity = [[[1.0 if i == j else 0.0, 0.0] for j in range(d)] for i in range(d)]
    zero = [[[0.0, 0.0] for _ in range(d)] for _ in range(d)]
    return {"d": d, "n": n, "components": [identity] + [zero] * (n - 1)}


def _write_json(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return path


def frame_invocations(path: str, work: str, vector: str, samples=None,
                      variants: bool = False) -> list:
    """Every command on one frame document, as argv lists; with `variants`,
    the pass pair runs once more with `--beta BETA`, and the
    self-perturbation and the pass pair once more under the `hat_original`
    interpretation."""
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    stem = os.path.join(work, os.path.basename(path)[:-5])
    passed = _write_json(stem + "-pass.json", _scaled(doc, 1.0 + ETA / 2.0))
    witness = _write_json(stem + "-witness.json", _scaled(doc, 1.0 + 2.0 * ETA))
    sampling = ["--samples", str(samples)] if samples else []
    out = [["analyze", path], ["independence", path]]
    for check in ([], ["--check-theorem21"]):
        for convention in ([], ["--convention", "linear"], ["--convention", "cyclic"]):
            out.append(["represent", path, *check, *convention])
    out.append(["represent", path, "--tight-certificate", "--vector", vector])
    out.append(["perturb", path, path, *sampling])
    for other in (passed, witness):
        out.append(["perturb", path, other, "--eta", str(ETA), *sampling])
    if variants:
        out.append(["perturb", path, passed, "--eta", str(ETA), "--beta", str(BETA), *sampling])
        hat_original = ["--interpretation", "hat_original", *sampling]
        out.append(["perturb", path, path, *hat_original])
        out.append(["perturb", path, passed, "--eta", str(ETA), *hat_original])
    return out


def _is_frame(path: str) -> bool:
    with open(path, encoding="utf-8") as handle:
        return "elements" in json.load(handle)


def plan(old_src: str, work: str) -> list:
    """(argv, written document path or None) of every invocation.  The
    documents the commands read are written once, by the old tree, here;
    the compared `gen` invocations write beside them."""
    corpus = shutil.copytree(CORPUS, os.path.join(work, "corpus"),
                             ignore=shutil.ignore_patterns("__gframemod_cache__"))
    corpus_vector = os.path.join(corpus, "unit_vector_n2_d2.json")
    frames = sorted(os.path.join(corpus, name) for name in os.listdir(corpus)
                    if name.endswith(".json") and _is_frame(os.path.join(corpus, name)))
    invocations = [(argv, None) for argv in PARSER_INVOCATIONS]
    for path in frames:
        invocations += [(argv, None)
                        for argv in frame_invocations(path, work, corpus_vector, variants=True)]
    orbit = os.path.join(corpus, "unitary_orbit_m4.json")
    for samples in ("0", "-3"):
        invocations.append((["perturb", orbit, orbit, "--samples", samples], None))
    lone = os.path.join(corpus, "single_submodule.json")
    invocations += [(["represent", orbit, "--vector", corpus_vector], None),
                    (["represent", lone, "--tight-certificate"], None),
                    (["perturb", lone, lone, "--samples", "0"], None),
                    (["perturb", lone, lone, "--eta", "1.5"], None)]
    invocations += [(["represent", orbit, "--check-theorem21", "--seed", "-1"], None),
                    (["perturb", orbit, orbit, "--seed", "-1"], None)]
    for kind in KINDS:
        doc = os.path.join(work, f"gen_{kind}_negative_seed.json")
        invocations.append((["gen", "--kind", kind, "--seed", "-1", doc], doc))
    repeating = [(kind, 1, 1, 1) for kind in KINDS] + [("fusion", n, d, n * d) for n, d, _ in SIZES]
    for kind, n, d, m in repeating:
        doc = os.path.join(work, f"gen_{kind}_n{n}_d{d}_m{m}_repeats.json")
        invocations.append((["gen", "--kind", kind, "--n", str(n), "--d", str(d), "--m", str(m),
                             "--seed", "1", doc], doc))
    with open(orbit, encoding="utf-8") as handle:
        tiny = _write_json(os.path.join(work, "tiny_orbit.json"), _scaled(json.load(handle), 1e-200))
    invocations += [(argv, None) for argv in frame_invocations(tiny, work, corpus_vector)]
    base = os.path.join(work, "gen_random_maximizer.json")
    if run(old_src, ["gen", "--kind", "random", "--n", "2", "--d", "2", "--m", "4", "--seed", "1",
                     base], base)[0] == 0:
        with open(base, encoding="utf-8") as handle:
            nudged = _write_json(base[:-5] + "-nudged.json", _nudged(json.load(handle), 1e-3, 1))
        pair = ["perturb", base, nudged, "--eta", str(MAXIMIZER_ETA)]
        invocations += [(pair, None), ([*pair, "--beta", str(BETA)], None)]
    base = os.path.join(work, f"gen_random_s{ROUNDED_SEED}.json")
    if run(old_src, ["gen", "--kind", "random", "--n", "2", "--d", "2", "--m", "4", "--seed",
                     str(ROUNDED_SEED), base], base)[0] == 0:
        with open(base, encoding="utf-8") as handle:
            rounded = _write_json(base[:-5] + f"-rounded{ROUNDED_DIGITS}.json",
                                  _rounded(json.load(handle), ROUNDED_DIGITS))
        invocations += [(argv, None) for argv in frame_invocations(rounded, work, corpus_vector)]
    for n, d, m in SIZES:
        vector = _write_json(os.path.join(work, f"vector_n{n}_d{d}.json"), _unit_vector(n, d))
        for kind in KINDS:
            written = []
            for seed in SEEDS:
                doc = os.path.join(work, f"gen_{kind}_n{n}_d{d}_m{m}_s{seed}.json")
                gen = ["gen", "--kind", kind, "--n", str(n), "--d", str(d), "--m", str(m),
                       "--seed", str(seed)]
                invocations.append(([*gen, doc + ".compared"], doc + ".compared"))
                if run(old_src, [*gen, doc], doc)[0] == 0:
                    written.append(doc)
                    invocations += [(argv, None)
                                    for argv in frame_invocations(doc, work, vector, samples=64)]
            if len(written) == len(SEEDS):
                invocations.append((["perturb", *written, "--eta", str(ETA), "--samples", "64"],
                                    None))
    for kind in LARGE_KINDS:
        written = []
        for seed in SEEDS:
            doc = os.path.join(work, f"gen_{kind}_n2_d2_m{LARGE_M}_s{seed}.json")
            if run(old_src, ["gen", "--kind", kind, "--n", "2", "--d", "2", "--m", str(LARGE_M),
                             "--seed", str(seed), doc], doc)[0] == 0:
                written.append(doc)
        if written:
            invocations.append((["independence", written[0]], None))
        if len(written) == len(SEEDS):
            invocations.append((["perturb", *written, "--eta", str(ETA)], None))
    return invocations


class _Number(str):
    """A JSON number, kept as the text it was written as."""


def _as_json(data):
    """The JSON value of some bytes, with every number kept as its text, or
    None when they are not JSON."""
    try:
        return json.loads(data, parse_float=_Number, parse_int=_Number)
    except (TypeError, ValueError):
        return None


def _ordered(x: float) -> int:
    """An integer that orders float64 values as the floats do and steps by
    one between neighbours, so that -0 and 0 meet."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _exact_ones(items: list):
    """Indices of the entries exactly [1, 0], when every entry is an
    [re, im] pair of numbers, else None."""
    if not all(isinstance(z, list) and len(z) == 2 and all(isinstance(p, _Number) for p in z)
               for z in items):
        return None
    return [k for k, (real, imag) in enumerate(items)
            if float(real) == 1.0 and float(imag) == 0.0]


def classify(old, new, path: str = "") -> list:
    """(class, key path, detail) of each difference between two JSON values,
    class being "structural" (detail: what moved) or "float" (detail: the
    distance in ulps)."""
    here = path or "<root>"
    if isinstance(old, dict) and isinstance(new, dict):
        out = []
        for key in sorted(old.keys() | new.keys()):
            sub = f"{path}.{key}" if path else key
            if key in old and key in new:
                out += classify(old[key], new[key], sub)
            else:
                out.append(("structural", sub, "present on one side only"))
        return out
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return [("structural", here, f"length {len(old)} -> {len(new)}")]
        out = []
        ones = _exact_ones(old), _exact_ones(new)
        if ones[0] != ones[1]:
            out.append(("structural", here, f"exactly [1, 0] at {ones[0]} -> {ones[1]}"))
        for k, (a, b) in enumerate(zip(old, new)):
            out += classify(a, b, f"{path}[{k}]")
        return out
    if type(old) is type(new) is _Number:
        if old == new:
            return []
        if not any(c in text for text in (old, new) for c in ".eE"):
            return [("structural", here, f"integer {old} -> {new}")]
        return [("float", here, abs(_ordered(float(old)) - _ordered(float(new))))]
    return [] if old == new else [("structural", here, f"{old!r} -> {new!r}")]


def _differences(old, new) -> list:
    """classify()'s list for two invocation results (exit code, stdout,
    stderr, written bytes), each float difference above LARGE_FLOAT_ULPS
    relabelled "large float"."""
    out = []
    if old[0] != new[0]:
        out.append(("structural", "exit code", f"{old[0]} -> {new[0]}"))
    for name, a, b in (("stdout", old[1], new[1]), ("document", old[3], new[3])):
        if a == b:
            continue
        a_json, b_json = _as_json(a), _as_json(b)
        if a_json is None or b_json is None:
            out.append(("structural", name, "not JSON on both sides"))
        else:
            out += [("large float" if kind == "float" and detail > LARGE_FLOAT_ULPS else kind,
                     f"{name}:{key}", detail)
                    for kind, key, detail in classify(a_json, b_json)]
    if old[2] != new[2]:
        out.append(("structural", "stderr", f"{old[2].decode(errors='replace').strip()!r} -> "
                                            f"{new[2].decode(errors='replace').strip()!r}"))
    return out


def _headline(label: str, argv, old, new, work: str) -> str:
    """One line naming the results that differ, the exit codes and the
    invocation, with paths under `work` relative to it."""
    parts = [name for name, a, b in zip(("exit code", "stdout", "stderr", "document"), old, new)
             if a != b]
    shown = " ".join(os.path.relpath(a, work) if a.startswith(work) else a for a in argv)
    return f"{label} ({', '.join(parts)}; exit {old[0]} -> {new[0]}): {shown}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", help="the reference tree's src/ directory")
    parser.add_argument("new_src", help="the changed tree's src/ directory")
    parser.add_argument("--threads", type=int, choices=range(1, 9), default=1, metavar="N",
                        help="BLAS threads for NEW_SRC, 1 to 8 (OLD_SRC always runs on one)")
    args = parser.parse_args(argv)
    work = tempfile.mkdtemp(prefix="byte-sweep-")
    try:
        invocations = plan(args.old_src, work)

        def compare(item):
            argv, written = item
            return (argv, run(args.old_src, argv, written),
                    run(args.new_src, argv, written, args.threads))

        def again(item):
            argv, written = item
            return run(args.new_src, argv, written, args.threads)

        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            results = list(pool.map(compare, invocations))
            warm = list(pool.map(again, invocations))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    differing = structural = large = 0
    for argv, old, new in results:
        if old == new:
            continue
        differing += 1
        differences = _differences(old, new)
        structural += any(kind == "structural" for kind, _, _ in differences)
        large += any(kind == "large float" for kind, _, _ in differences)
        print(_headline("DIFFERS", argv, old, new, work))
        if not differences:
            print("    layout only (same JSON value)")
        floats = {}
        for kind, key, detail in differences:
            if kind == "structural":
                print(f"    structural: {key} ({detail})")
            else:
                floats.setdefault((kind, re.sub(r"\[\d+\]", "[]", key)), []).append(detail)
        for (kind, key), ulps in floats.items():
            print(f"    {kind}: {key} ({len(ulps)} differ, at most {max(ulps)} ulp)")
    warm_differing = 0
    for (argv, _, new), repeat in zip(results, warm):
        if repeat != new:
            warm_differing += 1
            print(_headline("WARM DIFFERS", argv, new, repeat, work))
    print(f"warm pass: {len(warm)} invocations, {len(warm) - warm_differing} identical, "
          f"{warm_differing} differ")
    print(f"byte sweep: {len(results)} invocations, {len(results) - differing} identical, "
          f"{differing} differ, {structural} of them structurally, {large} with a large float "
          f"move")
    return 1 if differing or warm_differing else 0


if __name__ == "__main__":
    sys.exit(main())
