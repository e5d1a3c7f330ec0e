"""Monte-Carlo sweep over sketch seeds via the command-line harness.

Builds a config file, runs `hessketch sweep --param seed`, and prints the
aggregate statistics the harness writes.  Rerunning produces byte-identical
CSVs: every seed comes from the config, and the sweep sets the solver seed.
"""

import os
import tempfile

from hessketch.cli import main

CONFIG = """\
problem.type = tomography
problem.grid = 24
problem.angles = 18
problem.noise_level = 0.01
problem.seed = 0
output_dir = {out}

solver.slslu.maxiter = 20
solver.slslu.pivot = sampled
solver.slslu.sample_size = 25
"""

with tempfile.TemporaryDirectory() as tmp:
    out = os.path.join(tmp, "sweep_out")
    cfg_path = os.path.join(tmp, "exp.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(CONFIG.format(out=out))

    values = ",".join(str(s) for s in range(8))
    code = main(["sweep", cfg_path, "--param", "seed", "--values", values])
    print(f"exit code: {code}\n")

    with open(os.path.join(out, "sweep.csv")) as fh:
        print(fh.read())
    with open(os.path.join(out, "sweep_summary.txt")) as fh:
        print(fh.read())
