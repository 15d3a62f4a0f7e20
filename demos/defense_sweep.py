"""Client-side defenses vs the attack: dropout and DP-SGD.

One full federated run per variant with identical seeds; each variant is the
base config with its defense block overridden, e.g.
{"defense": {"apply": "dp", "noise_multiplier": 4.0}}.  Gaussian noise
eventually blinds the attacker, but only at a visible cost to the shared
model; dropout barely moves the needle.

Run: python3 demos/defense_sweep.py  (takes a minute or two: DP-SGD uses
per-example gradients)
"""

import json

from fedprof import defense, harness

cfg = harness.validate_config(json.dumps({
    "seed": 3000, "with_baseline": False, "fl": {"n_rounds": 12},
}))
rows = defense.run_defense_sweep(cfg, defense.sweep_from_config(cfg))

print(f"{'variant':>10} {'noise mult':>11} {'attack top-1':>13} {'model utility':>14}")
for r in rows:
    nm = "-" if r.noise_multiplier is None else f"{r.noise_multiplier:g}"
    print(f"{r.label:>10} {nm:>11} {r.attack_acc_top1:>13.2f} {r.model_utility:>14.3f}")

print("\nhigher noise multipliers trade attack resistance for utility;")
print("the clip norm and multipliers live under the config's defense block")
