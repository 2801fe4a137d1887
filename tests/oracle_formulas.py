"""The GL_1 and GL_2 value formulas evaluated slot by slot.

glchar's builders read each value from a table keyed by an exponent
residue and share one CycNum per distinct value.  The builders here
evaluate the formula of sheets.build_gl2_sheet's docstring at every
regular element instead, memoized only on the sign and the sorted
exponents mod N, so they share neither the residue arithmetic nor the
tables.  Tests compare the two slot by slot.
"""

from glchar.cyclotomic import CycNum, root
from glchar.sheets import CharacterSheet, IrrLabel, SheetRow
from glchar.tori import GroupSpec, enumerate_tori, regular_elements


def gl1_sheet(q: int) -> CharacterSheet:
    spec = GroupSpec(1, q)
    (tt,) = enumerate_tori(spec)
    N = q - 1
    rows = []
    for k in range(q - 1):
        label = IrrLabel.make(spec, "onedim", (k,))
        vals = {e: root(N, k * e[0]) for e in regular_elements(tt)}
        rows.append(SheetRow(label.format(), 1, {tt.blocks: vals}))
    return CharacterSheet(spec, N, (tt,), rows)


def gl2_sheet(q: int) -> CharacterSheet:
    spec = GroupSpec(2, q)
    N = q * q - 1
    sp, el = enumerate_tori(spec)
    regs_sp = regular_elements(sp)
    regs_el = regular_elements(el)
    zero = CycNum.zero(N)

    labels = [IrrLabel.make(spec, "onedim", (k,)) for k in range(q - 1)]
    labels += [IrrLabel.make(spec, "steinberg", (k,)) for k in range(q - 1)]
    labels += [IrrLabel.make(spec, "principal", (k, l))
               for k in range(q - 1) for l in range(k + 1, q - 1)]
    labels += {IrrLabel.make(spec, "cuspidal", (c,))
               for c in range(1, N) if c % (q + 1)}

    memo = {}

    def val(sign, *exps):
        key = (sign, *sorted(e % N for e in exps))
        v = memo.get(key)
        if v is None:
            v = memo[key] = CycNum.from_terms(N, [(e, sign) for e in key[1:]])
        return v

    rows = []
    for lab in sorted(labels, key=IrrLabel.sort_key):
        fam, par = lab.family, lab.params
        if fam == "onedim" or fam == "steinberg":
            k = par[0]
            sign = 1 if fam == "onedim" else -1
            vsp = {e: val(1, k * (e[0] + e[1]) * (q + 1)) for e in regs_sp}
            vel = {e: val(sign, k * e[0] * (q + 1)) for e in regs_el}
        elif fam == "principal":
            k, l = par
            vsp = {e: val(1, (k * e[0] + l * e[1]) * (q + 1),
                          (k * e[1] + l * e[0]) * (q + 1))
                   for e in regs_sp}
            vel = dict.fromkeys(regs_el, zero)
        else:
            c = par[0]
            vsp = dict.fromkeys(regs_sp, zero)
            vel = {e: val(-1, c * e[0], c * q * e[0]) for e in regs_el}
        rows.append(SheetRow(lab.format(), lab.dim(spec),
                             {sp.blocks: vsp, el.blocks: vel}))
    return CharacterSheet(spec, N, (sp, el), rows)
