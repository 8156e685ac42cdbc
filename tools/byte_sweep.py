"""Compare two gframemod source trees invocation by invocation.

    python3 tools/byte_sweep.py OLD_SRC NEW_SRC

Every invocation runs twice as a subprocess, `python3 -m gframemod.cli ...`
with PYTHONPATH set to one tree's `src/` directory and BLAS on one thread.
The sweep compares exit codes, standard output, standard error (with the
tree's path replaced by a placeholder) and any document written, then
prints every invocation whose results differ and a summary line.  Where
both trees wrote JSON (a report on standard output, or a document) that
differs, it also prints the dotted key paths at which the two differ, for
example `results.witness.lhs`; numbers are compared as written, so `-0`
and `0` differ.  It exits 1 when any differ.

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
* `gen` of every kind at the benchmark sizes, with seeds 1 and 2 (the
  written documents are compared), and every command above on each
  document that the old tree wrote, with a unit vector of its shape for the
  certificate;
* `perturb` of the seed-1 document against the seed-2 document of every
  kind and size: a pair of no factor form, so that the sampled path stays
  in the sweep when the factor certificate decides the scaled pairs;
* the parser's help, usage and error output (`PARSER_INVOCATIONS`, at
  `COLUMNS=80`): no arguments, `-h` and every `<command> -h`, an unknown
  command, an abbreviated one, a flag before the command, an unknown flag,
  a missing argument and a missing flag value, a bad choice and a bad
  integer.

The kinds, the (n, d, m) sizes and the perturbation size are read from
`perfbench/workloads.py`, so the sweep covers what the benchmark runs.
Two invocations run at once.

Derived documents (pairs, scaled copies, vectors) are built with the
standard library from the JSON lists, so the sweep imports no numpy.
"""

import argparse
import importlib.util
import json
import os
import shutil
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
SEEDS = (1, 2)
JOBS = 2
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
       "COLUMNS": "80"}
COMMANDS = ("analyze", "represent", "perturb", "gen", "independence")
PARSER_INVOCATIONS = (
    [], ["-h"], *([command, "-h"] for command in COMMANDS),
    ["bogus"], ["ana", "x"], ["--seed", "1", "analyze", "x"],
    ["analyze", "x", "--tol", "1"], ["analyze"], ["analyze", "--output"],
    ["represent", "f", "--convention", "zz"], ["gen", "--kind", "fusion", "--n", "x", "o"],
)


def run(src: str, argv, out_path=None):
    """(exit code, stdout, stderr, written bytes) of one invocation."""
    env = {k: v for k, v in os.environ.items() if k != "GFRAMEMOD_SEED"}
    env.update(ENV, PYTHONPATH=src)
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
    corpus_vector = os.path.join(CORPUS, "unit_vector_n2_d2.json")
    frames = sorted(os.path.join(CORPUS, name) for name in os.listdir(CORPUS)
                    if name.endswith(".json") and _is_frame(os.path.join(CORPUS, name)))
    invocations = [(argv, None) for argv in PARSER_INVOCATIONS]
    for path in frames:
        invocations += [(argv, None)
                        for argv in frame_invocations(path, work, corpus_vector, variants=True)]
    orbit = os.path.join(CORPUS, "unitary_orbit_m4.json")
    for samples in ("0", "-3"):
        invocations.append((["perturb", orbit, orbit, "--samples", samples], None))
    with open(orbit, encoding="utf-8") as handle:
        tiny = _write_json(os.path.join(work, "tiny_orbit.json"), _scaled(json.load(handle), 1e-200))
    invocations += [(argv, None) for argv in frame_invocations(tiny, work, corpus_vector)]
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
    return invocations


def _as_json(data):
    """The JSON value of some bytes, with every number kept as its text, or
    None when they are not JSON."""
    try:
        return json.loads(data, parse_float=str, parse_int=str)
    except (TypeError, ValueError):
        return None


def differing_keys(old, new, path: str = "") -> list:
    """Dotted key paths at which two JSON values differ; lists are leaves."""
    if not (isinstance(old, dict) and isinstance(new, dict)):
        return [] if old == new else [path or "<root>"]
    out = []
    for key in sorted(old.keys() | new.keys()):
        sub = f"{path}.{key}" if path else key
        if key in old and key in new:
            out += differing_keys(old[key], new[key], sub)
        else:
            out.append(sub)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", help="the reference tree's src/ directory")
    parser.add_argument("new_src", help="the changed tree's src/ directory")
    args = parser.parse_args(argv)
    work = tempfile.mkdtemp(prefix="byte-sweep-")
    try:
        invocations = plan(args.old_src, work)

        def compare(item):
            argv, written = item
            return argv, run(args.old_src, argv, written), run(args.new_src, argv, written)

        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            results = list(pool.map(compare, invocations))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    differing = 0
    for argv, old, new in results:
        if old == new:
            continue
        differing += 1
        parts = [name for name, a, b in zip(("exit code", "stdout", "stderr", "document"), old, new)
                 if a != b]
        shown = " ".join(os.path.relpath(a, work) if a.startswith(work) else a for a in argv)
        print(f"DIFFERS ({', '.join(parts)}; exit {old[0]} -> {new[0]}): {shown}")
        for name, a, b in (("stdout", old[1], new[1]), ("document", old[3], new[3])):
            a, b = _as_json(a), _as_json(b)
            if a is not None and b is not None and a != b:
                print(f"    {name} keys: {', '.join(differing_keys(a, b))}")
        if old[2] != new[2]:
            print(f"    old stderr: {old[2].decode(errors='replace').strip()}")
            print(f"    new stderr: {new[2].decode(errors='replace').strip()}")
    print(f"byte sweep: {len(results)} invocations, {len(results) - differing} identical, "
          f"{differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
