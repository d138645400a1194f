"""Self-consuming retraining across data cycles: collapse and its mitigation.

Each generation fits a fresh kernel estimate on a mixture of real draws and
earlier models' output, then the next generation resamples from it. Pure
synthetic feedback degrades steadily; keeping half the data real arrests
the drift; the all-real control stays flat.
"""

import time

from sclab.distributions import Gauss1D
from sclab.kernels import KernelSpec
from sclab.loop import KdeGenerator, LoopConfig, run_replicates
from sclab.mixing import MixtureSchedule

GENERATIONS = 6
REPLICATES = 6
N = 1024

cycles = {
    "full synthetic": MixtureSchedule.full_synthetic(GENERATIONS),
    "half real each gen": MixtureSchedule.real_each_gen(0.5, GENERATIONS),
    "balanced history": MixtureSchedule.balanced(GENERATIONS),
    "all real control": MixtureSchedule.all_real(GENERATIONS),
}

print(f"median TV to the real density, {REPLICATES} replicates, n = {N} per generation")
print("  generation:        " + "".join(f"{g:>9d}" for g in range(1, GENERATIONS + 1)))
for name, schedule in cycles.items():
    start = time.time()
    cfg = LoopConfig(
        generator=KdeGenerator(kernel=KernelSpec.gaussian()),
        schedule=schedule,
        p0=Gauss1D(0, 1),
        sizes=(N,) * GENERATIONS,
        replicates=REPLICATES,
        base_seed=2025,
    )
    _, summary = run_replicates(cfg)
    row = "".join(f"{v:9.4f}" for v in summary.tv_median)
    print(f"  {name:18s}:{row}   ({time.time() - start:.0f}s)")

print("\nper-generation record detail (full synthetic, first replicate):")
cfg = LoopConfig(
    generator=KdeGenerator(kernel=KernelSpec.gaussian()),
    schedule=MixtureSchedule.full_synthetic(GENERATIONS),
    p0=Gauss1D(0, 1),
    sizes=(N,) * GENERATIONS,
    base_seed=2025,
)
from sclab.loop import run_loop

for rec in run_loop(cfg, 0).records:
    print(f"  gen {rec.i}: tv_to_p0 {rec.tv_to_p0.value:.4f}  "
          f"tv_to_training_mixture {rec.tv_to_prev_mixture.value:.4f}  "
          f"bound {rec.bound_value:.3f}  real/synth {rec.n_real}/{sum(rec.n_synth)}")
