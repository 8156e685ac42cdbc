"""Workloads: sizes, generator kinds, the fixed per-cycle invocation mix,
and seeded construction of every input document.

Each cycle runs, for every kind of the workload, `gen`, `analyze`,
`independence` and `represent` (with `--check-theorem21` on the kinds listed
in `theorem21`), then `perturb` on a pass pair and a witness pair for every
kind listed in `perturb`.  The program only ever sees the generated files.

This module imports only the standard library at load time, so that the
benchmark's set-up time includes the first import of numpy.
"""

import json
import os
from dataclasses import dataclass

KINDS = ("fusion", "dilation", "unitary-orbit", "random")
ETA = 0.1  # perturbation size of both pairs; beta is 0
BETA = 0.0
# coefficient sequences per `perturb` call (vectors: a quarter of it): half
# the CLI default, and a quarter of it on wide-family, so that every
# workload's cycle fits at least five times in a run
PERTURB_SAMPLES = 128


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    d: int
    m: int
    kinds: tuple
    theorem21: tuple  # kinds whose `represent` adds --check-theorem21
    perturb: tuple  # kinds that get a pass pair and a witness pair
    perturb_samples: int = PERTURB_SAMPLES


WORKLOADS = {
    w.name: w
    for w in (
        Workload("small-docs", 2, 2, 4, KINDS,
                 ("unitary-orbit", "dilation"), ("unitary-orbit", "dilation")),
        # fusion needs m <= n*d, so it cannot take part at m = 64
        Workload("wide-family", 4, 4, 64, ("dilation", "unitary-orbit", "random"),
                 ("unitary-orbit", "dilation"), ("unitary-orbit", "dilation"),
                 perturb_samples=PERTURB_SAMPLES // 2),
        Workload("dense-operators", 16, 4, 4, ("fusion", "unitary-orbit", "random"),
                 ("unitary-orbit",), ("unitary-orbit",)),
    )
}


@dataclass(frozen=True)
class Invocation:
    key: str  # unique within a cycle, e.g. "represent:dilation"
    command: str
    kind: str
    variant: str  # "", "theorem21", "pass" or "witness"
    argv: tuple
    inputs: tuple  # input documents, in the order the report digests them
    output: str


def gen_seed(seed: int, kind: str) -> int:
    """Generator seed of one kind's document under the workload seed."""
    return seed * len(KINDS) + KINDS.index(kind)


def doc_path(workdir: str, kind: str, variant: str = "") -> str:
    name = f"{kind}-{variant}.json" if variant else f"{kind}.json"
    return os.path.join(workdir, "docs", name)


def _gen_args(w: Workload, seed: int, kind: str) -> tuple:
    return ("--kind", kind, "--n", str(w.n), "--d", str(w.d), "--m", str(w.m),
            "--seed", str(gen_seed(seed, kind)))


def cycle(w: Workload, seed: int, workdir: str) -> list:
    """The fixed list of invocations that makes up one cycle."""
    reports = os.path.join(workdir, "reports")
    plan = []

    def add(command, kind, variant, args, inputs):
        key = ":".join(filter(None, (command, kind, variant)))
        out = os.path.join(reports, key.replace(":", "_") + ".json")
        tail = (out,) if command == "gen" else ("--seed", str(seed), "--output", out)
        argv = (command,) + args + tail
        plan.append(Invocation(key, command, kind, variant, argv, inputs, out))

    for kind in w.kinds:
        doc = doc_path(workdir, kind)
        add("gen", kind, "", _gen_args(w, seed, kind), ())
        add("analyze", kind, "", (doc,), (doc,))
        add("independence", kind, "", (doc,), (doc,))
        if kind in w.theorem21:
            add("represent", kind, "theorem21", (doc, "--check-theorem21"), (doc,))
        else:
            add("represent", kind, "", (doc,), (doc,))
    for kind in w.perturb:
        base = doc_path(workdir, kind)
        for variant in ("pass", "witness"):
            other = doc_path(workdir, kind, variant)
            add("perturb", kind, variant, (base, other, "--eta", str(ETA), "--beta", str(BETA),
                                           "--samples", str(w.perturb_samples)), (base, other))
    return plan


def write_documents(cli_main, w: Workload, seed: int, workdir: str) -> None:
    """Generate every input document of the workload under `workdir`.

    The base documents come from the program's own `gen` command; the
    perturbation pairs are built here, so that their verdicts are known in
    closed form:

    * pass:    Yhat_xi = Y_xi (I + E) with ||E|| = eta / 2, so the
      inequality holds with a factor-2 margin (exit 0);
    * witness: Yhat_xi = (1 + 2 eta) Y_xi, so every sequence gives
      lhs = 2 rhs (exit 3).
    """
    os.makedirs(os.path.join(workdir, "docs"), exist_ok=True)
    os.makedirs(os.path.join(workdir, "reports"), exist_ok=True)
    for kind in w.kinds:
        rc = cli_main(["gen", *_gen_args(w, seed, kind), doc_path(workdir, kind)])
        if rc != 0:
            raise RuntimeError(f"gen --kind {kind} exited {rc}")
    for kind in w.perturb:
        _write_perturb_pair(doc_path(workdir, kind), doc_path(workdir, kind, "pass"),
                            doc_path(workdir, kind, "witness"), [seed, KINDS.index(kind)])


def _write_perturb_pair(base_path: str, pass_path: str, witness_path: str, entropy) -> None:
    import numpy as np  # deferred: see the module docstring

    with open(base_path, encoding="utf-8") as handle:
        doc = json.load(handle)
    nd = doc["n"] * doc["d"]
    rng = np.random.default_rng(entropy)
    e = rng.standard_normal((nd, nd)) + 1j * rng.standard_normal((nd, nd))
    e *= (ETA / 2.0) / np.linalg.norm(e, 2)
    right = np.eye(nd) + e
    for path, transform in ((pass_path, lambda y: y @ right),
                            (witness_path, lambda y: (1.0 + 2.0 * ETA) * y)):
        elements = [{"projection": el["projection"],
                     "operator": to_json(transform(from_json(el["operator"])))}
                    for el in doc["elements"]]
        out = dict(doc, elements=elements, metadata={"perturbation": os.path.basename(path)})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(out, handle)


def from_json(rows):
    """[re, im]-pair rows to a complex numpy array."""
    import numpy as np

    a = np.asarray(rows, dtype=np.float64)
    return a[..., 0] + 1j * a[..., 1]


def to_json(matrix) -> list:
    import numpy as np

    return np.stack([matrix.real, matrix.imag], axis=-1).tolist()
