"""How the motion feature separates drifting events from frozen distractors,
and how it gates the audio stream."""

import numpy as np

from avloc import autodiff as ad
from avloc import attention, motion
from avloc.model import ModelConfig, init_params

cfg = ModelConfig()
d = cfg.dims
params = init_params(cfg, seed=0).arrays  # name -> array, in table order
rng = np.random.default_rng(0)

# A hand-built video: segments 0-4 drift (an event), 5-9 repeat one frame (a
# static background, like a distractor run).
frames = np.zeros((d.T, d.h, d.w, d.d_v), dtype=np.float32)
drift_a, drift_b = rng.normal(size=(2, d.h, d.w, d.d_v))
frozen = rng.normal(size=(d.h, d.w, d.d_v))
for t in range(5):
    angle = 0.6 * t
    frames[t] = np.cos(angle) * drift_a + np.sin(angle) * drift_b
for t in range(5, d.T):
    frames[t] = frozen

tape = ad.Tape()
aligned = motion.align_channels(tape.leaf(frames),
                                tape.leaf(params["motion.align_kernel"]))
past, future = motion.past_future_motion(
    aligned, tape.leaf(params["motion.past_kernel"]),
    tape.leaf(params["motion.future_kernel"]))
feature = motion.fuse_and_pool(past, future, tape.leaf(params["motion.out_map"]))

print("per-segment motion magnitude (drifting first half, frozen second):")
for t in range(d.T):
    bar = "#" * int(4 * np.abs(feature.data[t]).mean())
    print(f"  t={t}  |M|={np.abs(feature.data[t]).mean():6.3f}  {bar}")
print("boundary rows are exactly zero:",
      bool(np.all(past.data[0] == 0) and np.all(future.data[-1] == 0)))

# The motion feature gates the audio twice: a temporal softmax (which
# segments matter) and a per-channel sigmoid. Tensors are bound to their
# tape, so the gate is rebuilt on a fresh tape together with the motion.
audio = rng.normal(size=(d.T, d.d_a)).astype(np.float32)
tape2 = ad.Tape()
motion_weights = {name.split(".", 1)[1]: tape2.leaf(array)
                  for name, array in params.items() if name.startswith("motion.")}
feature2 = motion.motion_feature(tape2.leaf(frames), motion_weights, mode="pfme")
# the gate weight initializes to zero (uniform attention), so draw a random
# one here to show how motion concentrates the temporal weights
gated, weights, _ = attention.motion_guided_audio(
    tape2.leaf(audio), feature2, tape2.leaf(0.3 * rng.normal(size=(d.d_a, 1))),
    return_parts=True)
print("\ntemporal attention weights over segments:")
print("  ", np.round(weights.data[:, 0], 3).tolist())

tape3 = ad.Tape()
flat = attention.motion_guided_audio(
    tape3.leaf(audio), tape3.zeros((d.T, d.d_a)),
    tape3.leaf(params["audio_gate.temporal_weight"]))
expected = 1.5 * (1 + 1 / d.T)
print(f"zero-motion closed form: output == {expected:.2f} * audio ->",
      bool(np.allclose(flat.data, expected * audio, atol=1e-5)))
