"""One full optimization run with the generation-by-generation statistics.

Run with: python3 demos/02_evolution_run.py
"""

from baystow import BayDims, GaConfig, GeneratorSpec, fitness, generate_instance, run

# 64 containers in a 4x4x4 bay, the classic mid-size setup.
inst = generate_instance(GeneratorSpec(BayDims(4, 4, 4), n_containers=64, seed=11))
cfg = GaConfig(pop_size=50, generations=100, crossover_prob=0.8, mutation_prob=0.1, seed=5)

stats = run(inst, cfg)

print(f"instance: {inst.dims} bay, {inst.n_containers} containers")
print(f"config: population {cfg.pop_size}, {cfg.generations} generations, "
      f"Pc={cfg.crossover_prob}, Pm={cfg.mutation_prob}, seed={cfg.seed}\n")

print("generation   best fitness   mean fitness")
for rec in stats.records:
    if rec.generation % 10 == 0 or rec.generation == 1:
        print(f"{rec.generation:10d}   {rec.best_fitness:12.4f}   {rec.mean_fitness:12.4f}")

print(f"\ninitial best  F_i = {stats.initial_best:.4f}")
print(f"final best    F_f = {stats.final_best:.4f}")
print(f"improvement ratio  {stats.final_best / stats.initial_best:.3f}")
print(f"total time    {stats.total_elapsed_ms:.1f} ms")

# The returned arrangement is the best individual ever seen, and its
# fitness can be recomputed independently of the run statistics.
check = fitness(stats.best, inst).fitness
print(f"\nrecomputed fitness of returned arrangement: {check:.4f}")

# Bottom floor of the winner: high-priority ids should sit on top, not here.
print("\nbest arrangement, bottom floor (z=0):")
grid = stats.best.grid  # the dense view, built on each access
for y in range(inst.dims.n2):
    print("  ", " ".join(f"{grid[x, y, 0]:2d}" for x in range(inst.dims.n1)))
