"""driftlab: a desk-scale laboratory for domain-incremental continual
learning on synthetic Gaussian benchmark streams.

The headline method keeps one frozen expert classifier per domain and
routes test points to experts with a domain discriminator trained purely on
synthetic samples from per-domain generative models; baselines cover
sequential finetuning, quadratic-anchor regularization, real and synthetic
rehearsal, centroid routing, and privileged baselines that read past real
data (joint training, a real-data router). Everything is numpy,
deterministic under a documented 64-bit seed tree, and driven by YAML
configs through the ``driftlab`` CLI.
"""
