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
* :func:`~repro.video.scene.generate_scene_plan` — content model;
* :mod:`~repro.video.container` — byte-level serialization.
"""

from ..lazy import lazy_exports

__all__ = [
    "BitrateProfile",
    "Bitstream",
    "BitstreamStats",
    "bitrate_profile",
    "sustainable_bandwidth",
    "EncoderConfig",
    "Frame",
    "FrameType",
    "Gop",
    "Scene",
    "SceneKind",
    "ScenePlan",
    "SyntheticEncoder",
    "deserialize_bitstream",
    "encode_paper_video",
    "generate_scene_plan",
    "serialize_bitstream",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "BitrateProfile": "analysis",
    "bitrate_profile": "analysis",
    "sustainable_bandwidth": "analysis",
    "Bitstream": "bitstream",
    "BitstreamStats": "bitstream",
    "deserialize_bitstream": "container",
    "serialize_bitstream": "container",
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
