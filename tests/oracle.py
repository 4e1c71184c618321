"""Independent straight-line references for the model's forward computation,
for top-K recall and for one Adam step.

Pure Python lists and explicit loops, written separately from the vectorized
implementation so the two can be compared: user-relation inner products,
softmax mixing weights, weighted neighborhood combination, per-iteration
W x + b and activation (ReLU inner, tanh last), sigmoid of the final inner
product; one user's Recall@k from a plain sort of every candidate; and the
Adam update per block and per coordinate.

Nothing here imports kgcn: the benchmark loads this file by path.
"""

import math


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def softmax_list(xs):
    m = max(xs)
    es = [math.exp(x - m) for x in xs]
    s = sum(es)
    return [e / s for e in es]


def straight_line_predict(user_vec, layers, relations, entity_table,
                          relation_table, hop_weights, hop_biases,
                          aggregator, uniform_weights=False):
    """Probability for one record given explicit receptive-field layers.

    layers[h] lists K^h entity ids; relations[h] (h >= 1) aligns each entry
    with the relation to its parent. hop_weights/hop_biases are per
    aggregation iteration, as nested lists.
    """
    H = len(layers) - 1
    K = len(layers[1]) if H > 0 else 1
    d = len(user_vec)
    reps = {}
    for h, layer in enumerate(layers):
        for j, e in enumerate(layer):
            reps[(h, j)] = list(entity_table[e])
    for it in range(H):
        nxt = {}
        for h in range(H - it):
            for j in range(len(layers[h])):
                children = list(range(j * K, (j + 1) * K))
                if uniform_weights:
                    w = [1.0 / K] * K
                else:
                    scores = [dot(user_vec, relation_table[relations[h + 1][c]])
                              for c in children]
                    w = softmax_list(scores)
                mixed = [0.0] * d
                for wc, c in zip(w, children):
                    child = reps[(h + 1, c)]
                    for i in range(d):
                        mixed[i] += wc * child[i]
                self_rep = reps[(h, j)]
                if aggregator == "sum":
                    x = [a + b for a, b in zip(self_rep, mixed)]
                elif aggregator == "concat":
                    x = list(self_rep) + mixed
                elif aggregator == "neighbor":
                    x = mixed
                else:
                    raise ValueError(aggregator)
                W = hop_weights[it]
                b = hop_biases[it]
                z = [dot(W[r], x) + b[r] for r in range(len(W))]
                if it < H - 1:
                    out = [max(v, 0.0) for v in z]
                else:
                    out = [math.tanh(v) for v in z]
                nxt[(h, j)] = out
        reps = nxt
    v = reps[(0, 0)]
    s = dot(user_vec, v)
    if s >= 0:
        p = 1.0 / (1.0 + math.exp(-s))
    else:
        p = math.exp(s) / (1.0 + math.exp(s))
    return min(max(p, 1e-12), 1.0 - 1e-12)


def recall_at_k(scorer, user, k, train_positives, test_positives, num_items):
    """Fraction of the user's test positives among the top k of all items
    outside train_positives, ranked by descending score with ties broken by
    ascending item index."""
    if not test_positives:
        raise ValueError(f"user {user} has no test positives")
    candidates = [v for v in range(num_items) if v not in train_positives]
    scores = scorer.score([user] * len(candidates), candidates)
    ranked = sorted(zip(candidates, scores), key=lambda pair: (-pair[1], pair[0]))
    hits = sum(1 for v, _ in ranked[:max(k, 0)] if v in test_positives)
    return hits / len(test_positives)


def adam_step_reference(theta, grad, m, v, t, eta, lam,
                        beta1=0.9, beta2=0.999, eps=1e-8):
    """Step t (from 1) of Adam with bias correction and L2 weight lam, one
    block and one coordinate at a time.

    theta, grad, m and v map each block name to a list of floats; theta, m
    and v are updated in place. The L2 term adds 2*lam*theta to the gradient.
    """
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for name, th in theta.items():
        mb, vb = m[name], v[name]
        for i, g in enumerate(grad[name]):
            if lam != 0.0:
                g = g + 2.0 * lam * th[i]
            mb[i] = mb[i] * beta1 + (1.0 - beta1) * g
            vb[i] = vb[i] * beta2 + (1.0 - beta2) * (g * g)
            th[i] -= eta * (mb[i] / c1) / (math.sqrt(vb[i] / c2) + eps)
