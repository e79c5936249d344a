"""
What the discriminator costs per step
=====================================

The adversarial mode runs a discriminator update plus a generator update
with both networks in the graph; the variety-only mode touches just the
generator.  Time a handful of steps of each on identical data.
"""

import numpy as np

from trajgan.data import synth_scene
from trajgan.model import Discriminator, Generator, ModelConfig
from trajgan.optim import Adam
from trajgan.train import TrainConfig, train_step_gan, train_step_nogan

windows = synth_scene("linear", 3, ("pedestrian", "car", "bicyclist"),
                      seed=0, n_windows=6, jitter=0.05)
config = ModelConfig(embed_dim=8, class_embed_dim=8, hidden_dim=16,
                     noise_dim=4, pool_dim=8, gamma_mlp_hidden=(16,),
                     pooling_mlp_hidden=(16,), decoder_init_mlp_hidden=(16,),
                     classifier_mlp_hidden=(16,))

# adversarial steps
gan_cfg = TrainConfig(mode="gan", batch_size=6, lr=1e-3, epochs=1, k=5, seed=0)
gen = Generator(config, np.random.default_rng(0))
disc = Discriminator(config, np.random.default_rng(1))
g_opt, d_opt = Adam(gen.parameters()), Adam(disc.parameters())
rng = np.random.default_rng(0)
gan_times = [train_step_gan(windows, gen, disc, g_opt, d_opt, gan_cfg, rng,
                            step=s).seconds for s in range(8)]

# variety-only steps on a fresh generator
nogan_cfg = TrainConfig(mode="nogan", batch_size=6, lr=1e-3, epochs=1, k=5,
                        seed=0)
gen2 = Generator(config, np.random.default_rng(0))
g_opt2 = Adam(gen2.parameters())
rng2 = np.random.default_rng(0)
nogan_times = [train_step_nogan(windows, gen2, g_opt2, nogan_cfg, rng2,
                                step=s).seconds for s in range(8)]

gan_ms = 1e3 * float(np.median(gan_times))
nogan_ms = 1e3 * float(np.median(nogan_times))
print(f"gan    median step: {gan_ms:7.1f} ms")
print(f"nogan  median step: {nogan_ms:7.1f} ms")
print(f"ratio: {gan_ms / nogan_ms:.2f}x")
