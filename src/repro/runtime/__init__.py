"""Runtime layer: parallel execution and seed derivation.

Everything above the simulation engines — sweeps, adversary searches,
benchmark grids — is a list of independent deterministic tasks.  This
package owns how those lists run fast without changing what they
compute:

* :class:`~repro.runtime.parallel.ParallelRunner` — process-pool map
  with chunked dispatch and automatic serial fallback; parallel results
  are identical to serial ones by construction.
* :func:`~repro.runtime.seeding.derive_seed` — hash-based per-task seed
  derivation so workers never share random state.

Future scaling work (sharding, async backends, distributed sweeps)
plugs in here rather than into the engines.
"""

from repro.runtime.parallel import ParallelRunner
from repro.runtime.seeding import derive_seed, spawn_seeds

__all__ = [
    "ParallelRunner",
    "derive_seed",
    "spawn_seeds",
]
