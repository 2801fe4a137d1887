"""Expected glchar output for GL_2(F_q), derived without importing glchar.

The source is the classical decomposition of the GL_2 irreducibles into
Deligne-Lusztig characters of the split torus (block label "1+1", points
(Z/(q-1))^2) and the elliptic torus (label "2", points Z/(q^2-1)):

    onedim k     split {(k,k): +1}             elliptic {k(q+1): +1}
    steinberg k  split {(k,k): +1}             elliptic {k(q+1): -1}
    principal    split {(k,l): +1, (l,k): +1}  elliptic {}
    cuspidal c   split {}                      elliptic {c: -1, cq: -1}

The geometric class invariant (epsilon) sits at level 2, where a split
character (a, b) lands on the residues {a(q+1), b(q+1)} mod q^2-1 and an
elliptic character c on its Frobenius orbit {c, cq}.  A row is unipotent
exactly when the trivial character is in a support: onedim:0, steinberg:0.

Rendering follows the documented CLI formats, so a row can be compared
byte for byte with `glchar recover` text lines and `--json` reports.
"""

from __future__ import annotations

import json

FAMILIES = ("onedim", "steinberg", "principal", "cuspidal")
SPLIT, ELLIPTIC = "1+1", "2"


def labels_by_family(q: int) -> dict[str, list[str]]:
    """Canonical labels of every GL_2(F_q) irreducible, in CLI sort order."""
    M = q * q - 1
    cusp = sorted({min(c, c * q % M) for c in range(1, M) if c % (q + 1)})
    return {
        "onedim": [f"onedim:{k}" for k in range(q - 1)],
        "steinberg": [f"steinberg:{k}" for k in range(q - 1)],
        "principal": [f"principal:{k},{l}"
                      for k in range(q - 1) for l in range(k + 1, q - 1)],
        "cuspidal": [f"cuspidal:{c}" for c in cusp],
    }


def all_labels(q: int) -> list[str]:
    fams = labels_by_family(q)
    return [lab for fam in FAMILIES for lab in fams[fam]]


def expected(q: int, label: str) -> dict:
    """The recovery report of one row, in the shape of `recover --json`.

    Terms are listed in lexicographic character order, as the CLI lists
    them.
    """
    M = q * q - 1
    fam, _, rest = label.partition(":")
    params = [int(p) for p in rest.split(",")]
    if fam in ("onedim", "steinberg"):
        (k,) = params
        sign = 1 if fam == "onedim" else -1
        split = {(k, k): 1}
        ell = {(k * (q + 1) % M,): sign}
        residues = [k * (q + 1) % M] * 2
    elif fam == "principal":
        k, l = params
        split = {(k, l): 1, (l, k): 1}
        ell = {}
        residues = sorted([k * (q + 1) % M, l * (q + 1) % M])
    elif fam == "cuspidal":
        (c,) = params
        split = {}
        ell = {(c,): -1, (c * q % M,): -1}
        residues = sorted([c, c * q % M])
    else:
        raise ValueError(f"unknown family in {label!r}")
    return {
        "label": label,
        "expansions": [
            {"torus": tname,
             "terms": [{"character": list(ch), "coefficient": co}
                       for ch, co in sorted(terms.items())]}
            for tname, terms in ((SPLIT, split), (ELLIPTIC, ell))],
        "epsilon": {"level": 2, "residues": residues},
        "unipotent": fam in ("onedim", "steinberg") and params[0] == 0,
    }


def expansion_size(q: int, label: str, torus: str) -> int:
    """Number of terms the row expands into on one torus: 0, 1 or 2."""
    for e in expected(q, label)["expansions"]:
        if e["torus"] == torus:
            return len(e["terms"])
    raise ValueError(f"unknown torus {torus!r}")


def text_line(report: dict) -> str:
    """One `glchar recover` text line for a report dict."""
    parts = [report["label"]]
    for e in report["expansions"]:
        terms = " + ".join(f"{t['coefficient']}*theta{tuple(t['character'])}"
                           for t in e["terms"]) or "0"
        parts.append(f"{e['torus']}: {terms}")
    eps = report["epsilon"]
    parts.append(f"epsilon L={eps['level']} {tuple(eps['residues'])}")
    parts.append(f"unipotent={'true' if report['unipotent'] else 'false'}")
    return " | ".join(parts)


def sheet_json(q: int, reports: list[dict]) -> bytes:
    """The stdout of `glchar recover --q Q --json` for the given reports."""
    doc = {"n": 2, "q": q, "reports": reports}
    return (json.dumps(doc, indent=1) + "\n").encode()
