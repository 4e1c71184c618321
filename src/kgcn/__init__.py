"""Knowledge-graph convolutional recommender.

End-to-end pipeline: ratings preprocessing with negative sampling, knowledge
graph adjacency + fixed-size neighbor sampling, H-hop biased aggregation with
hand-written gradients, Adam training, and CTR / top-K evaluation.
"""
