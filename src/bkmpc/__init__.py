"""Bilinear Koopman latent dynamics, benchmark simulators, and a
trust-region sequential-QP model-predictive controller.

Subpackages / modules:

* ``numerics``   dense matrix kernels (exponential, directional derivative),
                 batched LAPACK eigenvalues and eigenvectors, and a
                 reverse-mode tape.
* ``simulators`` cart-pole and reactor-separator ground-truth dynamics,
                 batched over rows of states.
* ``datagen``    seeded excitation rollouts, windowing, dataset container.
* ``model``      encoder, operator generator, bilinear coupling,
                 split-form discretization, rollout, training loss,
                 checkpoints.
* ``training``   optimizer loop, schedules, forecast metrics.
* ``qpsolver``   dense box-constrained QP by projected Newton.
* ``scp_mpc``    linearization, condensation, trust-region solve loop,
                 receding-horizon and lead-time execution.
* ``cli``        command-line harness emitting CSV / JSON / SVG artifacts.
"""

__version__ = "0.1.0"
