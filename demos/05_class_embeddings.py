"""
What the model learns about agent classes
=========================================

Train briefly on synthetic scenes where class determines speed, then project
the six learned class embeddings onto their top two principal components
and print the pairwise distances.
"""

import numpy as np

from trajgan.data import split_dataset, synth_scene
from trajgan.evaluate import analyze_embeddings
from trajgan.model import Generator, ModelConfig
from trajgan.train import TrainConfig, run_training

windows = synth_scene("linear", 3, ("pedestrian", "car", "bicyclist"),
                      seed=0, n_windows=40, jitter=0.5)
split = split_dataset(windows, seed=0)

config = ModelConfig(embed_dim=8, class_embed_dim=8, hidden_dim=16,
                     noise_dim=4, pool_dim=8, gamma_mlp_hidden=(16,),
                     pooling_mlp_hidden=(16,), decoder_init_mlp_hidden=(16,),
                     classifier_mlp_hidden=(16,),
                     use_labels=True)
train = TrainConfig(mode="nogan", batch_size=4, lr=3e-3, epochs=5, k=5, seed=0)

gen = Generator(config, np.random.default_rng(0))
print("training 5 epochs on 40 windows...")
best, log = run_training(gen, None, split, train)
print(f"best epoch {best['epoch']}: val ADE {best['val_ade']:.2f}")

analysis = analyze_embeddings(gen)
print("\ntop-2 principal components of the class embeddings:")
print(analysis.pca_csv())
print("pairwise distances:")
print(analysis.distances_csv())
if analysis.degenerate:
    print("note: embeddings barely moved; train longer for structure")
