#include "core/ace/compiled_model.h"

#include <algorithm>

#include "util/check.h"

namespace ehdnn::ace {

namespace {

// Scratch demands of a single layer, merged into the running plan maxima.
struct ScratchNeed {
  std::size_t input_stage = 0;
  std::size_t kern_vec = 0;
  std::size_t win_vec = 0;
  std::size_t row_stage = 0;
  std::size_t fft = 0;
  std::size_t acc32 = 0;
  std::size_t blk = 0;
};

ScratchNeed layer_need(const quant::QLayer& l) {
  ScratchNeed n;
  switch (l.kind) {
    case quant::QKind::kConv2D: {
      const std::size_t gather = l.in_ch * l.live_positions();
      n.input_stage = l.in_size();
      n.kern_vec = gather;
      n.win_vec = gather;
      n.row_stage = l.out_shape[2];  // one output row
      break;
    }
    case quant::QKind::kConv1D: {
      const std::size_t gather = l.in_ch * l.k;
      n.input_stage = l.in_size();
      n.kern_vec = gather;
      n.win_vec = gather;
      n.row_stage = l.out_shape[1];  // one filter's full output
      break;
    }
    case quant::QKind::kDense: {
      // Chunked row streaming: x chunk + w chunk + guarded 32-bit partials
      // for all output neurons (2 words each).
      const std::size_t chunk = std::min(l.in_ch, quant::kDenseChunk);
      n.input_stage = chunk;
      n.kern_vec = chunk;
      n.acc32 = 2 * l.out_ch;
      n.row_stage = std::min(l.out_ch, quant::kDenseChunk);
      break;
    }
    case quant::QKind::kBcmDense: {
      n.blk = l.k;
      n.fft = 2 * l.k;   // interleaved complex, each of W and X
      n.acc32 = 4 * l.k; // one block row of 64-bit accumulators (4 words)
      n.row_stage = l.k; // narrowed q15 output block
      break;
    }
    case quant::QKind::kMaxPool2D:
    case quant::QKind::kReLU:
    case quant::QKind::kFlatten:
      break;  // CPU-direct, no SRAM staging (paper Fig. 3)
  }
  return n;
}

// The compile-time gather tables the kernels index at run time.
LayerPlan layer_plan(const quant::QLayer& l) {
  LayerPlan p;
  switch (l.kind) {
    case quant::QKind::kConv2D: {
      for (std::size_t r = 0; r < l.kh; ++r) {
        for (std::size_t s = 0; s < l.kw; ++s) {
          if (l.shape_mask.empty() || l.shape_mask[r * l.kw + s]) {
            p.live_pos.emplace_back(static_cast<std::uint32_t>(r),
                                    static_cast<std::uint32_t>(s));
          }
        }
      }
      const std::size_t ih = l.in_shape[1], iw = l.in_shape[2];
      for (std::size_t c = 0; c < l.in_ch; ++c) {
        for (const auto& [r, s] : p.live_pos) {
          p.w_gather.push_back(static_cast<std::uint32_t>((c * l.kh + r) * l.kw + s));
          p.x_gather.push_back(static_cast<std::uint32_t>((c * ih + r) * iw + s));
        }
      }
      break;
    }
    case quant::QKind::kConv1D: {
      const std::size_t il = l.in_shape[1];
      for (std::size_t c = 0; c < l.in_ch; ++c) {
        for (std::size_t t = 0; t < l.k; ++t) {
          p.w_gather.push_back(static_cast<std::uint32_t>(c * l.k + t));
          p.x_gather.push_back(static_cast<std::uint32_t>(c * il + t));
        }
      }
      break;
    }
    case quant::QKind::kBcmDense: {
      for (std::size_t t = 0; t < l.k; ++t) {
        p.real_gather.push_back(static_cast<std::uint32_t>(2 * t));
      }
      break;
    }
    default:
      break;
  }
  for (const auto o : p.w_gather) p.w_span = std::max<std::size_t>(p.w_span, o + 1);
  for (const auto o : p.x_gather) p.x_span = std::max<std::size_t>(p.x_span, o + 1);
  return p;
}

}  // namespace

bool use_dma(const dev::CostModel& cm, std::size_t words) {
  // CPU copy loop: load + store + pointer/loop upkeep per word.
  const double cpu = static_cast<double>(words) *
                     (cm.cycles_fram_word + cm.cycles_sram_word + 2.0 * cm.cycles_cpu_op);
  const double dma = cm.cycles_dma_setup + cm.cycles_dma_word * static_cast<double>(words);
  return dma < cpu;
}

void move_words(dev::Device& dev, dev::MemKind src_mem, dev::Addr src, dev::MemKind dst_mem,
                dev::Addr dst, std::size_t words) {
  if (use_dma(dev.cost(), words)) {
    dev.dma_copy(src_mem, src, dst_mem, dst, words);
    return;
  }
  dev.cpu_copy(src_mem, src, dst_mem, dst, words);
}

CompiledModel compile(const quant::QuantModel& qm, dev::Device& dev, bool co_resident) {
  CompiledModel cm;
  cm.model = qm;

  // A co-resident compile places this image AFTER whatever is already in
  // FRAM (the adaptive scheduler ships two model variants in one device
  // image); otherwise the allocator resets and the image starts at the
  // base. SRAM scratch plans always overlap — only one model executes
  // per power cycle, and SRAM is scrambled at every reboot anyway.
  auto& fram = dev.fram();
  if (!co_resident) fram.reset_allocator();

  // Circular activation buffers (Fig. 5): two, each max(L_i) words.
  cm.act_words = qm.max_activation_words();
  cm.act_a = fram.alloc(cm.act_words, "act_a");
  cm.act_b = fram.alloc(cm.act_words, "act_b");

  // Weights and biases, per layer.
  std::size_t max_k = 0;
  for (std::size_t l = 0; l < qm.layers.size(); ++l) {
    const auto& q = qm.layers[l];
    LayerImage img;
    if (!q.weights.empty()) {
      img.w_base = fram.alloc(q.weights.size(), "w" + std::to_string(l));
      std::ranges::copy(q.weights, fram.mut_view(img.w_base, q.weights.size()).begin());
    }
    if (!q.bias.empty()) {
      img.b_base = fram.alloc(q.bias.size(), "b" + std::to_string(l));
      std::ranges::copy(q.bias, fram.mut_view(img.b_base, q.bias.size()).begin());
    }
    if (q.kind == quant::QKind::kBcmDense) max_k = std::max(max_k, q.k);
    cm.images.push_back(img);
    cm.plans.push_back(layer_plan(q));
  }

  // Intermittent-runtime control area: generous fixed header plus two
  // checkpoint slots sized for the worst-case FLEX payload: both complex
  // FFT buffers, the accumulator row and the real blocks, plus exponents
  // and indices.
  cm.ctrl_words = 32;
  cm.ctrl_base = fram.alloc(cm.ctrl_words, "ctrl");
  cm.ckpt_slot_words = 4 * (2 * max_k) + 2 * max_k + 2 * max_k + 64;
  cm.ckpt_base = fram.alloc(2 * cm.ckpt_slot_words, "ckpt");

  // Parity-slot space for runtimes that keep accumulators non-volatile
  // (SONIC per-element, TAILS per-chunk / per-BCM-block): two slots, sized
  // for the widest dense layer's 32-bit partials or a BCM accumulator row,
  // whichever is larger.
  std::size_t max_dense_out = 1;
  for (const auto& q : qm.layers) {
    if (q.kind == quant::QKind::kDense) max_dense_out = std::max(max_dense_out, q.out_ch);
  }
  cm.nv_acc_slot_words = std::max(2 * max_dense_out, 4 * max_k);
  cm.nv_acc_base = fram.alloc(2 * cm.nv_acc_slot_words, "nv_acc");

  cm.fram_words_used = fram.allocated_words();

  // --- SRAM scratch plan: maxima over layers -----------------------------
  ScratchNeed max_need;
  for (const auto& q : qm.layers) {
    const ScratchNeed n = layer_need(q);
    max_need.input_stage = std::max(max_need.input_stage, n.input_stage);
    max_need.kern_vec = std::max(max_need.kern_vec, n.kern_vec);
    max_need.win_vec = std::max(max_need.win_vec, n.win_vec);
    max_need.row_stage = std::max(max_need.row_stage, n.row_stage);
    max_need.fft = std::max(max_need.fft, n.fft);
    max_need.acc32 = std::max(max_need.acc32, n.acc32);
    max_need.blk = std::max(max_need.blk, n.blk);
  }

  auto& sram = dev.sram();
  sram.reset_allocator();
  SramPlan& sp = cm.sram;
  auto alloc_if = [&sram](std::size_t words, const char* name) -> dev::Addr {
    return words > 0 ? sram.alloc(words, name) : 0;
  };
  sp.input_stage_words = max_need.input_stage;
  sp.input_stage = alloc_if(sp.input_stage_words, "input_stage");
  sp.kern_vec_words = max_need.kern_vec;
  sp.kern_vec = alloc_if(sp.kern_vec_words, "kern_vec");
  sp.win_vec_words = max_need.win_vec;
  sp.win_vec = alloc_if(sp.win_vec_words, "win_vec");
  sp.row_stage_words = max_need.row_stage;
  sp.row_stage = alloc_if(sp.row_stage_words, "row_stage");
  sp.fft_words = max_need.fft;
  sp.fft_w = alloc_if(sp.fft_words, "fft_w");
  sp.fft_x = alloc_if(sp.fft_words, "fft_x");
  sp.acc32_words = max_need.acc32;
  sp.acc32 = alloc_if(sp.acc32_words, "acc32");
  sp.blk_words = max_need.blk;
  sp.x_blk = alloc_if(sp.blk_words, "x_blk");
  sp.w_blk = alloc_if(sp.blk_words, "w_blk");
  sp.total_words = sram.allocated_words();

  return cm;
}

}  // namespace ehdnn::ace
