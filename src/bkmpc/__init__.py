"""Bilinear Koopman latent dynamics, benchmark simulators, and a
trust-region sequential-QP model-predictive controller.

Subpackages / modules:

* ``numerics``   dense matrix kernels (exponential, directional derivative),
                 batched LAPACK eigenvalues and eigenvectors, and a
                 reverse-mode tape.
* ``simulators`` cart-pole and reactor-separator ground-truth dynamics.
* ``datagen``    seeded excitation rollouts, windowing, dataset container.
* ``model``      encoder, operator generator, bilinear coupling,
                 split-form discretization, rollout, training loss.
* ``training``   optimizer loop, schedules, checkpoints, forecast metrics.
* ``qpsolver``   dense box-constrained QP via over-relaxed splitting.
* ``scp_mpc``    linearization, condensation, trust-region solve loop,
                 receding-horizon and lead-time execution.
* ``cli``        command-line harness emitting CSV / JSON / SVG artifacts.
"""

__version__ = "0.1.0"
