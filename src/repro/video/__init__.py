"""Synthetic MPEG-4 video substrate.

The paper splices a real 2-minute, 1 Mbps MPEG-4 video with
Xuggler/FFmpeg.  We have no codec here, so this package models exactly
the properties splicing depends on:

* a stream is a sequence of **closed GOPs**;
* every GOP starts with an **I-frame** followed by P and B frames;
* I-frames are several times larger than P/B frames;
* GOP *length varies with scene content* — stationary scenes produce
  long GOPs, action scenes produce short ones (the paper's stated cause
  of GOP-splicing stalls).

Public entry points:

* :class:`~repro.video.encoder.EncoderConfig` /
  :class:`~repro.video.encoder.SyntheticEncoder` — produce a
  :class:`~repro.video.bitstream.Bitstream` from a scene plan;
* :func:`~repro.video.scene.generate_scene_plan` — content model.
"""

from ..lazy import lazy_exports

__all__ = [
    "Bitstream",
    "BitstreamStats",
    "EncoderConfig",
    "Frame",
    "FrameType",
    "Gop",
    "Scene",
    "SceneKind",
    "ScenePlan",
    "SyntheticEncoder",
    "encode_paper_video",
    "generate_scene_plan",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "Bitstream": "bitstream",
    "BitstreamStats": "bitstream",
    "EncoderConfig": "encoder",
    "SyntheticEncoder": "encoder",
    "encode_paper_video": "encoder",
    "Frame": "frames",
    "FrameType": "frames",
    "Gop": "gop",
    "Scene": "scene",
    "SceneKind": "scene",
    "ScenePlan": "scene",
    "generate_scene_plan": "scene",
})
