"""
Memorizing a fixed batch
========================

Variety-loss-only training (no discriminator) on four constant-velocity
windows.  With a fixed batch and fixed noise draws the loss should head
toward zero; watching it fall is a quick health check of the whole
encoder/pooling/decoder stack.
"""

import numpy as np

from trajgan.data import synth_scene
from trajgan.model import Generator, ModelConfig
from trajgan.optim import Adam
from trajgan.train import TrainConfig, train_step_nogan

windows = synth_scene("linear", 3, ("pedestrian", "car", "bicyclist"),
                      seed=0, n_windows=4, jitter=0.0)

config = ModelConfig(embed_dim=8, class_embed_dim=8, hidden_dim=16,
                     noise_dim=4, pool_dim=8, gamma_mlp_hidden=(16,),
                     pooling_mlp_hidden=(16,), decoder_init_mlp_hidden=(16,),
                     classifier_mlp_hidden=(16,))
train = TrainConfig(mode="nogan", batch_size=4, lr=1e-2, epochs=1, k=5,
                    seed=0, clip_norm=5.0)

gen = Generator(config, np.random.default_rng(0))
opt = Adam(gen.parameters(), lr=train.lr)

print("step  variety")
for step in range(200):
    # recreating the rng every step keeps the noise fixed, so the batch is
    # a deterministic target
    record = train_step_nogan(windows, gen, opt, train,
                              np.random.default_rng(7), step=step)
    if step % 25 == 0 or step == 199:
        print(f"{step:4d}  {record.variety:10.4f}")
