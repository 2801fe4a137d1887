"""The dict form of a sheet file, built field by field.

glchar writes sheet files with one emitter, sheets.sheet_to_json_text,
which assembles the text from memoized pieces.  This module builds the
same document as plain dicts and lists, the layout README.md documents,
so json.dumps(sheet_to_dict(sheet), indent=1) + "\\n" is the oracle of
the emitter's bytes, and tests that edit a file's fields start from it.
"""


def sheet_to_dict(sheet) -> dict:
    irr = []
    for r in sheet.rows:
        values = {}
        for tt in sheet.tori:
            vals = r.values[tt.blocks]
            values[tt.label] = [
                {"element": list(e), "value": vals[e].to_triples()}
                for e in sorted(vals)]
        irr.append({"label": r.label, "dim": r.dim, "values": values})
    return {
        "group": "GL",
        "n": sheet.spec.n,
        "q": sheet.spec.q,
        "zeta_level": sheet.zeta_level,
        "tori": [t.label for t in sheet.tori],
        "irreducibles": irr,
    }
