#!/usr/bin/env python3
"""Write the bundled presentations and machines as text files under corpus/
(or the directory given to `main`), ready for `wob query`, `wob recognize`,
`wob tm ...` and `wob hopda ...`."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wob import corpus, hopda, tm
from wob.logic import save_structure


def main(root=None):
    root = Path(root) if root is not None else Path(__file__).resolve().parent.parent / "corpus"
    root.mkdir(exist_ok=True)
    for p in corpus.well_order_corpus() + corpus.non_well_order_corpus():
        directory = root / p.name
        manifest = save_structure(p.structure, directory)
        print(f"wrote {manifest}")
    machines = root / "machines"
    machines.mkdir(exist_ok=True)
    for spec in [tm.increment_machine(), tm.copy_machine(),
                 tm.kreisel_comparator(False), tm.kreisel_comparator(True)]:
        path = machines / f"{spec.name}.tm"
        path.write_text(tm.save_tm(spec), encoding="utf-8")
        print(f"wrote {path}")
    for h in [hopda.anbn_pda(), hopda.omega_machine(),
              hopda.omega_squared_machine(), hopda.omega_omega_machine()]:
        path = machines / f"{h.name}.hopda"
        path.write_text(hopda.save_hopda(h), encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
