"""Golden output hashes: every file extract, classify, survive and inspect write.

The rule: a hash in GOLDEN may change only in a change whose CHANGES.md
entry names the file and says why its bytes changed.  The package runs on
numpy alone, so of its dependencies a numpy upgrade can move an output
hash, and so can the CPU, in two ways.  The OpenBLAS kernel numpy's
matrix products run on: the table holds under the FMA kernels (Haswell or
newer), and under OPENBLAS_CORETYPE=Sandybridge out/features.csv differs.
And numpy's dispatch of float64 exp and log: the table holds where numpy
runs its AVX-512 code (dispatch group X86_V4), and under
NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR", or on a CPU
without AVX-512, out/features.csv differs.  The test cohort's
textures come from scipy's gaussian_filter, so a scipy upgrade can move
them only through the inputs.  Each is a finding to report, not a reason
to re-pin.  Never re-pin silently.
"""

import hashlib

import numpy as np
from conftest import build_texture_cohort

from deepradiomics.manifest import RunConfig, load_manifest
from deepradiomics.pipeline import cmd_classify, cmd_extract, cmd_inspect, cmd_survive, write_csv

# output file path, relative to the run's directory -> SHA-256 of its bytes
GOLDEN = {
    "out/features.csv": "57d0242c7f3527e07c3a13710c32a87255cd2702b77c0f96ca17b1b270f8f28e",
    "out/inspect_P001_map13.svg": "643292cd6aaaef191561eea2003a14f726eb2fce11179c1635ade53fe78b42f5",
    "out/km_R.svg": "a7515fa6e7aa61b5edc2435af1f810f2780d83f2d9c80410ca3966f9bb86e045",
    "out/km_long_R.csv": "43e0159b92f0f195887d4dd581d4d06457501cd2cb5ba44abf011a9c9971fbc0",
    "out/km_short_R.csv": "4f78dae52426fe8a71aa0d0050819bec67354423f943e7766d45474996a188bb",
    "out/logrank_R+C+I.json": "db8be34f9f65e4fd5e173e9479b39da62b75646d313482034c977c60dfeafbc7",
    "out/logrank_R.json": "71d993a023ee31d540e51e6d1b725d8901caba078ce213c8fecab0cb9aa8855e",
    "out/report_m1_R+C+I.json": "01bbc219465c4ffdcc1df18227fcf91849dd81f5e000b211f11e830587d03f2c",
    "out/report_m1_R.json": "45d7434bbcc49d855cb757cf56a410d868b519717cd77b640f0c3cc77796a976",
    "out/report_survival_R+C+I.json": "9ebb1e86ae40481f49ec30bb48867353c73d86934ffc959326a4708050e0d32f",
    "out/report_survival_R.json": "0d90057786038f783aa14ac96fe9e61d318ad65fca4cfbd375fb5dc989453099",
    "out/roc_m1_R+C+I.csv": "7243ba88df84bb38b2774bc66c85d648159b1f7b5aadf3202b4ddcc098489a17",
    "out/roc_m1_R.csv": "7243ba88df84bb38b2774bc66c85d648159b1f7b5aadf3202b4ddcc098489a17",
    "out/roc_survival_R+C+I.csv": "1c990d8517579a84ecb4346cc60c2dd74cfc3304c9faec4b4ef3cbc7f1f7daba",
    "out/roc_survival_R.csv": "0acea8b741bb8485853165c43b2d7ff7accfea56ceee77cbfc9d563c943dc0c1",
    "out/slice_P001_map13.pgm": "d842cdb4f2919015934be5c13fe3225221bfefc60f362fd200533c4fcc9ff6ce",
    "out/survival_report.csv": "77f824fb27461ef36c2066027f59d2e0b8508a5117965297a07679d4aea50dd4",
    "ulp/report_m1_R+C+I.json": "6b6cf22444b77f493feb4dda042ad9e28357207c4597cc26d5f37de86df5945f",
    "ulp/report_m1_R.json": "355276e726cef18fc514892260b845d12d8a5cdf6c63bb3397ac04da53acdfa3",
    "ulp/roc_m1_R+C+I.csv": "29b5410c5f009c3b1f4cdccf61634de6b4627c9b075385e8f865882baaaba1a9",
    "ulp/roc_m1_R.csv": "ccc2deee567dcc309fcb090feec28b035eaf1cb698facf5d71dbe0c923d5ad21",
}


def numpy_dispatch() -> str:
    """numpy's version and its X86_V4 (AVX-512) dispatch flag on this host."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # numpy 1.x keeps it elsewhere; the flag then reads unknown
        features = {}
    return f"numpy {np.__version__}, X86_V4 {features.get('X86_V4', 'unknown')}"


def test_outputs_match_golden_hashes(tmp_path):
    manifest = build_texture_cohort(
        tmp_path, n=5, seed=23, dims=(24, 26, 20), distinct_modalities=True
    )
    weights = tmp_path / "weights.bin"
    config = RunConfig(
        k=2, seed=5, grid={"n_trees": [25, 50], "min_leaf": [1]}, feature_sets=("R", "R+C+I")
    )
    out = tmp_path / "out"
    records = load_manifest(manifest)
    result = cmd_extract(records, weights, config, out)
    assert not result.failures
    cmd_classify(result.features_path, records, "m1", config, out)
    cmd_survive(result.features_path, records, config, out)
    cmd_inspect(records, "P001", 13, weights, config, out, modality="t2wi")

    # a split threshold is the midpoint of two adjacent sample values; for
    # 1 + 4k ulp and 1 + (4k+1) ulp it rounds onto the lower one, so these
    # reports pin the side of a split that a value equal to its threshold takes
    ids = [r.patient_id for r in records]
    x = 1.0 + np.spacing(1.0) * np.array([[0, 5], [1, 0], [4, 8], [5, 1], [8, 4]])
    write_csv(tmp_path / "ulp.csv", ["patient_id", "a", "b"], [[i, *map(float, v)] for i, v in zip(ids, x)])
    cmd_classify(tmp_path / "ulp.csv", records, "m1", config, tmp_path / "ulp")

    got = {
        str(p.relative_to(tmp_path)): hashlib.sha256(p.read_bytes()).hexdigest()
        for d in ("out", "ulp") for p in sorted((tmp_path / d).iterdir())
    }
    changed = sorted(name for name in GOLDEN.keys() | got.keys() if got.get(name) != GOLDEN.get(name))
    assert not changed, f"output bytes differ from the golden table: {changed} ({numpy_dispatch()})"
