"""Request-level batching from the serving side.

A ranking server receives one user with K candidate items.  The
undecoupled model runs K full forwards.  The decoupled model computes
everything user-side once — masked head rows, sequence keys and values
— and sweeps only the item-side work per candidate.  This script builds
both, proves they agree, and times them.
"""

import time

import numpy as np

import mixformer as mx

K = 32


def main():
    rng = np.random.default_rng(0)
    schema = mx.schema_from_widths(
        d_ns_user=24, d_ns_item=16, action_dim=8, max_seq_len=48
    )
    n_user, n_item = mx.allocate_heads(24, 16, n_heads=4)
    print(f"head split for a 24/16 feature budget: "
          f"{n_user} user heads, {n_item} item heads")
    cfg = mx.ModelConfig(
        n_heads=4, head_dim=32, n_blocks=2, max_seq_len=48,
        decoupling=mx.DecoupleConfig(True, n_user, n_item),
    )
    store = mx.init_parameters(schema, cfg, seed=0)
    request = mx.Request(
        user_id=0,
        user_nonseq=[0],
        actions=np.zeros((48, 1), dtype=np.int64),
        candidates=np.zeros((K, 1), dtype=np.int64),
    )

    print("\nthe mask that keeps user heads blind to item chunks:")
    mask = mx.build_mask(cfg.n_heads, n_user, cfg.head_dim)
    print(mask.astype(int))

    state = mx.compute_shared_user_state(request, store)
    print(f"\nshared user state: {len(state.layers)} layers, "
          f"keys per layer {state.layers[0].keys.shape}")

    t0 = time.perf_counter()
    per_candidate = np.stack(
        [mx.forward_decoupled(request, i, store) for i in range(K)]
    )
    t_single = time.perf_counter() - t0

    t0 = time.perf_counter()
    batched = mx.rlb_forward(request, store)
    t_batched = time.perf_counter() - t0

    print(f"\nK={K} candidates")
    print(f"  per-candidate loop: {t_single * 1e3:7.1f} ms")
    print(f"  shared user state:  {t_batched * 1e3:7.1f} ms "
          f"({t_single / t_batched:.1f}x)")
    print(f"  max |difference|:   {np.max(np.abs(per_candidate - batched)):.2e}")

    meter = mx.rlb_savings(cfg, schema, seq_len=48, n_candidates=K)
    print(f"  flops saved per the analytic meter: {meter:.1%}")

    print("\nsavings curve (fraction of serving flops avoided):")
    print("  K     savings")
    for k in (1, 2, 4, 8, 16, 32, 64, 128):
        s = mx.rlb_savings(cfg, schema, seq_len=48, n_candidates=k)
        print(f"  {k:<5} {s:.4f}")


if __name__ == "__main__":
    main()
