"""The synthetic graph has cora's shape on every seed and repeats exactly
for one seed. Run from the repository root with:

    PYTHONPATH=src python3 -m pytest perfbench/test_synth.py
"""

import numpy as np
import pytest

import synth


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_stats_meet_targets(seed):
    labels, edges, features = synth.generate(seed)
    stats = synth.stats(labels, edges, features)
    assert synth.check_stats(stats) == []
    assert np.bincount(labels).tolist() == list(synth.CLASS_SIZES)
    assert features.shape == (synth.NUM_NODES, synth.NUM_FEATURES)


def test_same_seed_same_graph_other_seed_other_graph():
    a, b, c = synth.generate(3), synth.generate(3), synth.generate(4)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    assert not np.array_equal(a[1], c[1])


def test_t2_pattern_matches_dense_product():
    labels, edges, features = synth.generate(5)
    n = labels.size
    adj = np.eye(n, dtype=np.float32)
    adj[edges[:, 0], edges[:, 1]] = adj[edges[:, 1], edges[:, 0]] = 1
    assert synth.stats(labels, edges, features)["t2_nnz"] == \
        np.count_nonzero(adj @ adj)


def test_linqs_files_load_with_the_library(tmp_path):
    modgcn = pytest.importorskip("modgcn")
    labels, edges, features = synth.generate(2)
    synth.write_linqs(tmp_path / "g", "g", 2, labels, edges, features)
    graph = modgcn.load_dataset(str(tmp_path / "g"), str(tmp_path),
                                use_cache=False, features="none")
    assert graph.num_nodes == synth.NUM_NODES
    assert graph.num_edges == len(edges)
    assert graph.num_classes == len(synth.CLASS_SIZES)
    assert np.count_nonzero(graph.features) == features.sum()
    lap = modgcn.normalized_laplacian(graph)
    l_tilde = modgcn.rescale_laplacian(lap, modgcn.power_iteration(lap))
    stats = synth.stats(labels, edges, features)
    assert l_tilde.nnz == stats["l_tilde_nnz"]
