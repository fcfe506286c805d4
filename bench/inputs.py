"""Write the benchmark's dense input field as an FLD1 file: the degree-4
standard triholomorphic field of the given seed, materialized on a 33^4 box
grid with L=0.5 (38 MB of values).

    python3 bench/inputs.py SEED PATH

It runs in a process of its own so that the memory the materialization takes
is not counted against the workloads that read the file.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fueterlab.fields import GridField, save_fld1, standard_triholomorphic_field  # noqa: E402

NODES = 33


def write_field(seed, path):
    poly = standard_triholomorphic_field(seed=seed, degree=4)
    u = GridField.from_function(poly, 1, 1, NODES, domain="box", L=0.5, materialize=True)
    save_fld1(u, path)


if __name__ == "__main__":
    write_field(int(sys.argv[1]), sys.argv[2])
