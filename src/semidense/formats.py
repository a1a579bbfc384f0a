"""File formats: FMAT binary matrices, ASCII PLY, scene and model JSON.

FMAT is the one binary container used for descriptors, model features, and
attention weights: magic "FMAT", u32 version, u32 section count, then per
section a u32 name length, the UTF-8 name, a u8 dtype code (0=f32, 1=f64),
u64 rows, u64 cols, and the row-major little-endian payload.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
from pathlib import Path

import numpy as np

from .geometry import CameraIntrinsics, SE3Pose
from .scene import NoiseModel, SyntheticScene

FMAT_MAGIC = b"FMAT"
FMAT_VERSION = 1
_DTYPE_CODES = {0: "<f4", 1: "<f8"}
_CODE_OF_DTYPE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", newline: str | None = None):
    """Open a new file beside `path` for writing; it replaces `path` when the block ends.

    The file is opened as open(path, mode, newline=newline) would open it
    (mode "w" or "wb") and moved over `path` with os.replace, so `path`
    holds either its earlier bytes or all the new ones. If the block
    raises, `path` is left as it was and the new file is removed.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_fmat(path, sections: dict[str, np.ndarray]) -> None:
    """Write named 2D float arrays; insertion order is preserved on disk."""
    with atomic_write(path, "wb") as fh:
        fh.write(FMAT_MAGIC)
        fh.write(struct.pack("<II", FMAT_VERSION, len(sections)))
        for name, array in sections.items():
            a = np.asarray(array)
            if a.ndim != 2:
                raise ValueError(f"section {name!r} must be 2D, got shape {a.shape}")
            if a.dtype not in _CODE_OF_DTYPE:
                a = a.astype(np.float64)
            code = _CODE_OF_DTYPE[a.dtype]
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<BQQ", code, a.shape[0], a.shape[1]))
            fh.write(np.ascontiguousarray(a, dtype=_DTYPE_CODES[code]).tobytes())


def read_fmat(path) -> dict[str, np.ndarray]:
    """Read every section; a truncated or malformed file raises ValueError."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def take(n: int, what: str) -> bytes:
            if n > size - fh.tell():
                raise ValueError(f"{path}: truncated FMAT file in {what}")
            return fh.read(n)

        magic = take(4, "header")
        if magic != FMAT_MAGIC:
            raise ValueError(f"{path}: not an FMAT file: bad magic {magic!r}")
        version, count = struct.unpack("<II", take(8, "header"))
        if version != FMAT_VERSION:
            raise ValueError(f"{path}: unsupported FMAT version {version}")
        sections: dict[str, np.ndarray] = {}
        for i in range(count):
            (name_len,) = struct.unpack("<I", take(4, f"section {i} header"))
            try:
                name = take(name_len, f"section {i} name").decode("utf-8")
            except UnicodeDecodeError:
                raise ValueError(f"{path}: section {i} name is not UTF-8") from None
            code, rows, cols = struct.unpack("<BQQ", take(17, f"section {name!r} header"))
            if code not in _DTYPE_CODES:
                raise ValueError(f"{path}: section {name!r} has unknown dtype code {code}")
            dtype = np.dtype(_DTYPE_CODES[code])
            payload = take(rows * cols * dtype.itemsize, f"section {name!r} payload")
            sections[name] = np.frombuffer(payload, dtype=dtype).reshape(rows, cols).copy()
    return sections


def _require(mapping, keys, where) -> None:
    """Raise ValueError naming `where` unless `mapping` holds every key."""
    missing = [k for k in keys if k not in mapping]
    if missing:
        raise ValueError(f"{where}: missing {', '.join(missing)}")


def _require_point_rows(sections, names, where) -> None:
    """Raise ValueError naming `where` unless the sections are one finite table of N points.

    `points` must be (N, 3) and each section in `names` must have N rows.
    """
    n = len(sections["points"])
    if sections["points"].shape[1] != 3:
        raise ValueError(f"{where}: points must have 3 columns, got {sections['points'].shape[1]}")
    for name in ("points", *names):
        if len(sections[name]) != n:
            raise ValueError(f"{where}: {name} has {len(sections[name])} rows, points {n}")
        if not np.isfinite(sections[name]).all():
            raise ValueError(f"{where}: {name} is not finite")


def _read_named_fmat(directory: Path, name, where) -> tuple[Path, dict[str, np.ndarray]]:
    """The FMAT file that the manifest `where` names, in `directory`: (path, sections).

    A name that is not a non-empty string, or a file that cannot be read,
    raises ValueError naming `where`.
    """
    if not isinstance(name, str) or not name:
        raise ValueError(f"{where}: file name must be a non-empty string, got {name!r}")
    path = directory / name
    try:
        return path, read_fmat(path)
    except OSError as e:
        raise ValueError(f"{where}: cannot read {path}: {e.strerror or e}") from None


def write_ply(path, points: np.ndarray) -> None:
    """Point-cloud PLY in ASCII, one repr() vertex per line for diff-ability."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    header = (
        "ply\n"
        "format ascii 1.0\n"
        f"element vertex {len(pts)}\n"
        "property double x\nproperty double y\nproperty double z\n"
        "end_header\n"
    )
    with atomic_write(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for x, y, z in pts:
            fh.write(f"{float(x)!r} {float(y)!r} {float(z)!r}\n".encode("ascii"))


def read_ply(path) -> np.ndarray:
    """Vertices (N, 3) of an ASCII PLY as write_ply writes it; other formats raise ValueError."""
    with open(path, "rb") as fh:
        line = fh.readline().strip()
        if line != b"ply":
            raise ValueError("not a PLY file")
        fmt = None
        n = None
        while True:
            line = fh.readline().strip()
            if line.startswith(b"format"):
                fmt = line.split()[1].decode()
            elif line.startswith(b"element vertex"):
                n = int(line.split()[-1])
            elif line == b"end_header":
                break
            elif not line:
                raise ValueError("unexpected end of PLY header")
        if fmt != "ascii":
            raise ValueError(f"PLY format {fmt!r} is not supported, only 'ascii'")
        if n is None:
            raise ValueError("PLY header has no 'element vertex'")
        rows = [fh.readline().split() for _ in range(n)]
        return np.array(rows, dtype=np.float64)


def _load_json(path):
    """The JSON value in the file `path`; nesting too deep to decode raises ValueError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _dump_json(payload, path) -> None:
    with atomic_write(path) as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def save_scene(scene: SyntheticScene, json_path) -> None:
    """Scene JSON plus FMAT sidecar (points, coarse/fine descriptors)."""
    json_path = Path(json_path)
    sidecar = json_path.with_suffix(".fmat")
    write_fmat(
        sidecar,
        {
            "points": scene.points,
            "desc_coarse": scene.desc_coarse,
            "desc_fine": scene.desc_fine,
        },
    )
    payload = {
        "format": "semidense-scene",
        "version": 1,
        "seed": scene.seed,
        "diameter": scene.diameter,
        "noise": scene.noise.to_dict(),
        "n_points": scene.n_points,
        "sidecar": sidecar.name,
        "views": [
            {
                "pose": [[float(x) for x in row] for row in pose.matrix],
                "intrinsics": intr.to_dict(),
            }
            for pose, intr in scene.views
        ],
    }
    _dump_json(payload, json_path)


def load_scene(json_path) -> SyntheticScene:
    json_path = Path(json_path)
    payload = _load_json(json_path)
    if not isinstance(payload, dict) or payload.get("format") != "semidense-scene":
        raise ValueError(f"{json_path} is not a scene file")
    _require(payload, ("sidecar", "views", "noise", "seed", "diameter"), json_path)
    sidecar, sections = _read_named_fmat(json_path.parent, payload["sidecar"], json_path)
    _require(sections, ("points", "desc_coarse", "desc_fine"), sidecar)
    _require_point_rows(sections, ("desc_coarse", "desc_fine"), sidecar)
    if not isinstance(payload["views"], list):
        raise ValueError(f"{json_path}: views is not a list")
    views = [_load_view(v, f"{json_path}: view {i}") for i, v in enumerate(payload["views"])]
    try:
        noise = NoiseModel.from_dict(payload["noise"])
        seed, diameter = int(payload["seed"]), float(payload["diameter"])
    except (TypeError, ValueError, OverflowError) as e:
        raise ValueError(f"{json_path}: {e}") from None
    return SyntheticScene(
        points=sections["points"],
        desc_coarse=sections["desc_coarse"],
        desc_fine=sections["desc_fine"],
        views=views,
        noise=noise,
        seed=seed,
        diameter=diameter,
    )


def _load_view(view, where: str) -> tuple[SE3Pose, CameraIntrinsics]:
    """One scene view: a finite 4x4 `pose` matrix and an `intrinsics` mapping."""
    if not isinstance(view, dict):
        raise ValueError(f"{where}: not a mapping")
    _require(view, ("pose", "intrinsics"), where)
    if not isinstance(view["intrinsics"], dict):
        raise ValueError(f"{where}: intrinsics is not a mapping")
    _require(view["intrinsics"], ("fx", "fy", "cx", "cy", "width", "height"), f"{where} intrinsics")
    try:
        pose = np.array(view["pose"], dtype=float)
        if pose.shape != (4, 4) or not np.isfinite(pose).all():
            raise ValueError("pose must be a finite 4x4 matrix")
        return SE3Pose.from_matrix(pose), CameraIntrinsics.from_dict(view["intrinsics"])
    except (TypeError, ValueError, OverflowError) as e:
        raise ValueError(f"{where}: {e}") from None


def save_model(model_dir, model, coarse_points: np.ndarray, recon_views: list[int]) -> None:
    """Refined model directory: PLY clouds, FMAT features, JSON manifest."""
    model_dir = Path(model_dir)
    model_dir.mkdir(parents=True, exist_ok=True)
    write_ply(model_dir / "coarse.ply", coarse_points)
    write_ply(model_dir / "refined.ply", model.points)
    write_fmat(
        model_dir / "features.fmat",
        {
            "points": model.points,
            "coarse_features": model.coarse_features,
            "fine_features": model.fine_features,
        },
    )
    _dump_json(
        {
            "format": "semidense-model",
            "version": 1,
            "n_points": model.n_points,
            "track_ids": [int(t) for t in model.track_ids],
            "recon_views": [int(v) for v in recon_views],
            "files": {
                "coarse_ply": "coarse.ply",
                "refined_ply": "refined.ply",
                "features": "features.fmat",
            },
        },
        model_dir / "model.json",
    )


def load_model(model_dir):
    from .refine import PointCloudModel

    model_dir = Path(model_dir)
    manifest_path = model_dir / "model.json"
    manifest = _load_json(manifest_path)
    if not isinstance(manifest, dict) or manifest.get("format") != "semidense-model":
        raise ValueError(f"{model_dir} is not a model directory")
    _require(manifest, ("files", "track_ids", "recon_views"), manifest_path)
    if not isinstance(manifest["files"], dict):
        raise ValueError(f"{manifest_path}: files is not a mapping")
    _require(manifest["files"], ("features",), f"{manifest_path} files")
    features, sections = _read_named_fmat(model_dir, manifest["files"]["features"], manifest_path)
    _require(sections, ("points", "coarse_features", "fine_features"), features)
    _require_point_rows(sections, ("coarse_features", "fine_features"), features)
    for name in ("track_ids", "recon_views"):
        if not (isinstance(manifest[name], list) and all(type(i) is int for i in manifest[name])):
            raise ValueError(f"{manifest_path}: {name} is not a list of integers")
    try:
        track_ids = np.array(manifest["track_ids"], dtype=int)
    except OverflowError as e:
        raise ValueError(f"{manifest_path}: track_ids: {e}") from None
    if len(track_ids) != len(sections["points"]):
        raise ValueError(
            f"{manifest_path}: {len(track_ids)} track_ids for {len(sections['points'])} points"
        )
    model = PointCloudModel(
        points=sections["points"],
        coarse_features=sections["coarse_features"],
        fine_features=sections["fine_features"],
        track_ids=track_ids,
    )
    return model, manifest
