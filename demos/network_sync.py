"""Cooperative positioning of one agent from four anchors: particle BP finds
the basin, and a Gauss-Newton fit finishes from its MMSE estimate.

Run:  python3 demos/network_sync.py
"""

import numpy as np

from isaclab import syncnet as sn

space = sn.StateSpace(("position",))
ids, anchors = (0, 1, 2, 3, 4), (0, 1, 2, 3)
topology = sn.NetworkTopology.full_mesh(ids, anchors)
truth = {0: sn.ApertureState(0, [0.0, 0.0]),
         1: sn.ApertureState(1, [100.0, 0.0]),
         2: sn.ApertureState(2, [0.0, 100.0]),
         3: sn.ApertureState(3, [100.0, 100.0]),
         4: sn.ApertureState(4, [37.0, 61.0])}

# two-way delay measurements, 0.3 ns timing noise (about 9 cm of range)
noise = sn.MeasurementNoise(delay_std=3e-10)
measurements = sn.simulate_measurements(topology, truth, noise, seed=5)

priors = {j: sn.PointPrior(space.pack(truth[j])) for j in anchors}
priors[4] = sn.UniformPrior([0.0, 0.0], [100.0, 100.0])
graph = sn.build_factor_graph(topology, priors, measurements, space)
print(f"factor graph: {len(graph.pair_factors)} pair factors + "
      f"{len(graph.priors)} priors, cycles={graph.has_cycles()}")

config = sn.BPConfig(particle_count=1500, max_iterations=40, seed=1,
                     anneal_start=1e5, anneal_decay=0.4)
beliefs = sn.run_loopy_bp(graph, config)

b = beliefs[4]
mmse = sn.estimate_mmse(b, space, 4)
fit = sn.gauss_newton(graph, {**{j: truth[j] for j in anchors}, 4: mmse})
gn = fit.states[4]
err = np.linalg.norm(mmse.position - truth[4].position)
gn_err = np.linalg.norm(gn.position - truth[4].position)
status = (f"converged after {beliefs.iterations} iterations"
          if beliefs.converged else
          f"stopped at the cap of {config.max_iterations} without converging")
print(f"BP {status}, ESS {b.ess:.0f}/{config.particle_count}")
print(f"truth     : ({truth[4].position[0]:.3f}, {truth[4].position[1]:.3f})")
print(f"mmse est  : ({mmse.position[0]:.3f}, {mmse.position[1]:.3f})"
      f"   error {err:.3f} m")
print(f"gn   est  : ({gn.position[0]:.3f}, {gn.position[1]:.3f})"
      f"   error {gn_err:.3f} m after {fit.steps} steps, cost per degree "
      f"of freedom {fit.cost_per_dof:.2f}")

spread = np.sqrt(np.sum(b.weights[:, None]
                        * (b.particles - b.particles.mean(0)) ** 2))
print(f"posterior spread        : {spread:.3f} m")
print(f"range-noise floor       : {3e-10 * sn.SPEED_OF_LIGHT:.3f} m")

# anchors are known, so the network RMS covers the agent only
report = sn.sync_error_report({4: gn}, {4: truth[4]})
print(f"rms position error      : {report['position_rms_m']:.3f} m")
