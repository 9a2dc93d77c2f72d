"""Tour of the dataset utilities: generators, IDX and CSV round trips, and the
seeded class-to-task split.

Everything here is deterministic given the seeds, which is what makes whole
experiment sweeps byte-for-byte reproducible.
"""

import tempfile
from pathlib import Path

import numpy as np

from splitbridge.data import (
    gen_glyph_images,
    gen_synthetic,
    load_csv,
    load_idx,
    save_csv,
    save_idx,
    split_tasks,
)


def main():
    train, test = gen_synthetic(8, 16, 50, 25, seed=1)
    print(f"synthetic: {len(train)} train / {len(test)} test samples, "
          f"{train.num_classes} Gaussian clusters in {train.x.shape[1]}-d")

    seq = split_tasks(train, test, 4, seed=1)
    print("task split (seeded class permutation, labels remapped to blocks):")
    for t, task in enumerate(seq.tasks, start=1):
        owned = list(range(task.classes.start, task.classes.stop))
        originals = sorted(o for o, n in seq.remap.items() if n in owned)
        print(f"  task {t}: owns global classes {owned} "
              f"(originally {originals}), {len(task.train)} train samples")

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)

        # CSV round trip is exact because floats are written with repr()
        save_csv(train, tmp / "train.csv")
        back = load_csv(tmp / "train.csv")
        print(f"\nCSV round trip exact: {np.array_equal(back.x, train.x)}")

        # IDX (the big-endian image format) quantizes pixels to bytes
        glyphs, _ = gen_glyph_images(10, side=8, train_per_class=20,
                                     test_per_class=5, seed=1)
        save_idx(glyphs, tmp / "imgs.idx", tmp / "lbls.idx", 8, 8)
        loaded = load_idx(tmp / "imgs.idx", tmp / "lbls.idx")
        err = np.abs(loaded.x - glyphs.x).max()
        print(f"IDX round trip: labels exact {np.array_equal(loaded.y, glyphs.y)}, "
              f"pixel error {err:.5f} (<= half a uint8 level)")

        ascii_art = loaded.x[0].reshape(8, 8)
        print("\nfirst glyph (class 0), thresholded:")
        for row in ascii_art:
            print("  " + "".join("#" if v > 0.5 else "." for v in row))


if __name__ == "__main__":
    main()
