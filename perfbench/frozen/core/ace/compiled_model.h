// ACE compilation: placing a QuantModel onto the device (paper SSIII-B).
//
// FRAM layout (all non-volatile):
//   [act A | act B | per-layer weights+biases | ctrl block | ckpt slots]
// The two activation buffers implement circular-buffer convolution
// (Fig. 5): every layer reads one and writes the other, then the pointers
// swap — max(L_i) words each, regardless of network depth.
//
// SRAM layout (volatile scratch, planned per model):
//   [input stage | kernel vec | window vec | row stage | fft W | fft X |
//    acc32 | x block | w block]
// Only what the largest layer needs is allocated; compile() fails loudly
// if the plan exceeds the 8 KB SRAM, which is exactly the resource check
// RAD's architecture search performs before accepting a candidate.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "device/device.h"
#include "quant/qmodel.h"

namespace ehdnn::ace {

// Tile-runtime cursor record placement inside the ctrl block (see the
// CompiledModel::ctrl_base layout comment below).
inline constexpr std::size_t kTileCursorOffset = 8;
inline constexpr std::size_t kTileSlotWords = 8;

struct LayerImage {
  dev::Addr w_base = 0;  // FRAM, weights (layout as in QLayer)
  dev::Addr b_base = 0;  // FRAM, biases
};

// Per-layer compile-time gather tables: everything the kernels used to
// recompute (or allocate) per invocation is resolved once here, so the
// inner loops are pure bulk device accesses.
struct LayerPlan {
  // Conv2D: live kernel positions (r, s) honoring structured pruning.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> live_pos;
  // Conv: FRAM offsets of one filter's live weights relative to the
  // filter's weight base, in gather order (c-major, then live position).
  std::vector<std::uint32_t> w_gather;
  std::size_t w_span = 0;  // max offset + 1 (single bounds-check window)
  // Conv: SRAM offsets of one input window's live elements relative to
  // input_stage + (top-left corner of the window).
  std::vector<std::uint32_t> x_gather;
  std::size_t x_span = 0;
  // BcmDense: offsets of the real components in an interleaved complex
  // buffer of k elements ({0, 2, ..., 2k-2}) for the REAL extraction.
  std::vector<std::uint32_t> real_gather;
};

// SRAM scratch plan (word addresses; a size of 0 means not needed).
struct SramPlan {
  dev::Addr input_stage = 0;   // staged input feature map (conv) / x vector
  std::size_t input_stage_words = 0;
  dev::Addr kern_vec = 0;      // gathered kernel (conv) / weight row chunk
  std::size_t kern_vec_words = 0;
  dev::Addr win_vec = 0;       // gathered window (conv)
  std::size_t win_vec_words = 0;
  dev::Addr row_stage = 0;     // output row staging before bulk DMA
  std::size_t row_stage_words = 0;
  dev::Addr fft_w = 0;         // interleaved complex W spectrum (2k words)
  dev::Addr fft_x = 0;         // interleaved complex X spectrum (2k words)
  std::size_t fft_words = 0;   // each
  dev::Addr acc32 = 0;         // per-row block accumulator (2 words/elem)
  std::size_t acc32_words = 0;
  dev::Addr x_blk = 0;         // real x block (k)
  dev::Addr w_blk = 0;         // real first-column block (k)
  std::size_t blk_words = 0;

  std::size_t total_words = 0;
};

struct CompiledModel {
  quant::QuantModel model;  // metadata copy (weights also live in FRAM)
  std::vector<LayerImage> images;
  std::vector<LayerPlan> plans;  // parallel to model.layers

  dev::Addr act_a = 0;
  dev::Addr act_b = 0;
  std::size_t act_words = 0;

  // Intermittent-runtime control words. Fixed layout within the block
  // (ctrl_words = 32):
  //   +0..+2                     SONIC/TAILS loop-continuation cursor
  //   +kTileCursorOffset         tile-runtime cursor slot 0
  //   +kTileCursorOffset+kTileSlotWords  tile-runtime cursor slot 1
  // Each tile slot is kTileSlotWords: [0] epoch (written last, 0 =
  // invalid), [1] layer, [2] outer, [3] tile, [4..7] acc64 payload —
  // the double-buffered sub-layer cursor record (core/flex/tile.cpp).
  dev::Addr ctrl_base = 0;
  std::size_t ctrl_words = 0;
  dev::Addr ckpt_base = 0;        // two checkpoint slots (FLEX)
  std::size_t ckpt_slot_words = 0;
  dev::Addr nv_acc_base = 0;      // two parity slots for non-volatile
  std::size_t nv_acc_slot_words = 0;  // accumulators (SONIC/TAILS)

  SramPlan sram;

  // Activation buffer for layer l's input: A for even l, B for odd
  // (the circular swap).
  dev::Addr act_in(std::size_t layer) const { return layer % 2 == 0 ? act_a : act_b; }
  dev::Addr act_out(std::size_t layer) const { return layer % 2 == 0 ? act_b : act_a; }

  std::size_t fram_words_used = 0;
};

// Builds the layout and programs weights into FRAM (cost-free pokes —
// flashing happens at deploy time, not inference time). `co_resident`
// keeps any previously compiled image: the new one is placed after it, so
// two model variants can ship in one device image (what the adaptive
// scheduler's per-boot variant selection runs on). fram_words_used is
// then the cumulative total.
CompiledModel compile(const quant::QuantModel& qm, dev::Device& dev,
                      bool co_resident = false);

// Data-movement decision (SSIII-B "ACE selects the right kind of data
// movement method"): DMA beats a CPU copy loop above a small size; the
// threshold falls out of the cost model.
bool use_dma(const dev::CostModel& cm, std::size_t words);

// Copy helper honoring the decision (same-region or cross-region).
void move_words(dev::Device& dev, dev::MemKind src_mem, dev::Addr src, dev::MemKind dst_mem,
                dev::Addr dst, std::size_t words);

}  // namespace ehdnn::ace
