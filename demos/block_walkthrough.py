"""Anatomy of one interaction block, printed step by step.

Builds a tiny two-head model, pushes a single request through the
feature path and the first block, and shows what each stage does to the
state: the per-head split, the parameter-free head mixing (with its
involution checked on the live activations), cross attention onto the
action sequence, and the fused output.  Run it; every section prints
the arrays it talks about.
"""

import numpy as np

import mixformer as mx
from mixformer import autodiff as ad

N_HEADS, HEAD_DIM = 2, 4


def banner(text):
    print(f"\n--- {text} " + "-" * max(0, 60 - len(text)))


def main():
    rng = np.random.default_rng(0)
    schema = mx.FeatureSchema(
        nonseq_fields=(
            mx.FeatureField("user_id", "user", 8, 3),
            mx.FeatureField("item_id", "item", 10, 3),
        ),
        action_fields=(mx.ActionField("item_id", 10, 3),),
        max_seq_len=4,
    )
    cfg = mx.ModelConfig(
        n_heads=N_HEADS, head_dim=HEAD_DIM, n_blocks=1, max_seq_len=4
    )
    store = mx.init_parameters(schema, cfg, seed=0)
    request = mx.Request(
        user_id=3,
        user_nonseq=[3],
        actions=rng.integers(10, size=(4, 1)).astype(np.int64),
        candidates=np.array([[7]], dtype=np.int64),
    )

    banner("feature embedding")
    tables = store.tables
    e_user = tables["user_id"].lookup(np.array([3])).data
    e_item = tables["item_id"].lookup(request.candidates[:, 0]).data
    print(f"user embedding  {e_user.round(3)}")
    print(f"item embedding  {e_item.round(3)}")
    print("concatenated non-sequence width:", schema.d_ns)

    banner(f"split into {N_HEADS} heads of width {HEAD_DIM}")
    batch = mx.stack_requests([request])  # one request, one candidate
    e_ns = mx.embed_nonseq_batch(batch, store.tables, schema)[0, 0]
    layout = store.layout
    x0 = mx.split_heads(e_ns, store.dense["split.proj"], layout)
    print("head-state shape:", x0.data.shape)
    print(x0.data.round(3))

    banner("head mixing: out row i, chunk j  <-  in row j, chunk i")
    mixed = mx.head_mixing(x0)
    print(mixed.data.round(3))
    again = mx.head_mixing(mixed)
    print("applied twice == identity:", np.array_equal(again.data, x0.data))
    with ad.FlopTrace() as trace:
        mx.head_mixing(x0)
    print("flops spent mixing:", trace.total)

    banner("cross attention reads the action sequence")
    from mixformer.blocks import sequence_embedding

    actions = mx.embed_actions_batch(batch, store.tables, schema)[0]
    seq = sequence_embedding(batch, store)[0]
    keys, values = mx.project_actions(seq, store.block(0), cfg)
    print("raw action embedding:", actions.data.shape)
    print("projected sequence:  ", seq.data.shape)
    print("per-head keys:       ", keys.data.shape, " values:", values.data.shape)

    banner("whole block, then task heads")
    logits = mx.forward(request, 0, store)
    print("logits per task:", logits.round(4))
    report = mx.count_flops(cfg, schema, request.seq_len, n_candidates=1)
    print(f"analytic flops for this pass: {report.total:,}")
    with ad.FlopTrace() as trace:
        mx.forward(request, 0, store)
    print(f"executed flops:               {trace.total:,}")


if __name__ == "__main__":
    main()
