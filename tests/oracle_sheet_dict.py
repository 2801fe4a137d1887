"""The dict forms of a sheet file, built field by field.

glchar writes sheet files in format 2 with one emitter,
sheets.sheet_to_json_text, which interns values by identity and by value.
sheet_to_dict_v2 builds the same document as plain dicts and lists, the
layout README.md documents, keyed on each value's triples, so
json.dumps(sheet_to_dict_v2(sheet), separators=(",", ":")) + "\\n" is the
oracle of the emitter's bytes.  sheet_to_dict builds the version 1
document (no "format" key, one {"element", "value"} entry per regular
element), which glchar still reads: json.dumps(..., indent=1) of it is
the version 1 writer for tests.  Tests that edit a file's fields start
from either.
"""

import json


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


def sheet_to_dict_v2(sheet) -> dict:
    table, position, irr = [], {}, []
    for r in sheet.rows:
        values = {}
        for tt in sheet.tori:
            vals = r.values[tt.blocks]
            indices = []
            for e in sorted(vals):
                triples = vals[e].to_triples()
                key = json.dumps(triples)
                if key not in position:
                    position[key] = len(table)
                    table.append(triples)
                indices.append(position[key])
            values[tt.label] = indices
        irr.append({"label": r.label, "dim": r.dim, "values": values})
    return {
        "format": 2,
        "group": "GL",
        "n": sheet.spec.n,
        "q": sheet.spec.q,
        "zeta_level": sheet.zeta_level,
        "tori": [t.label for t in sheet.tori],
        "values": table,
        "irreducibles": irr,
    }


def v1_text(sheet) -> str:
    return json.dumps(sheet_to_dict(sheet), indent=1) + "\n"


def v2_text(sheet) -> str:
    return json.dumps(sheet_to_dict_v2(sheet), separators=(",", ":")) + "\n"
