#include "pmf/pmf.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <ostream>
#include <span>
#include <sstream>
#include <vector>

#include "obs/counters.hpp"
#include "util/assert.hpp"
#include "validate/validation.hpp"

namespace ecdra::pmf {
namespace {

double TotalMass(const Impulse* impulses, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += impulses[i].prob;
  return acc;
}

void NormalizeMass(Impulse* impulses, std::size_t n) {
  const double mass = TotalMass(impulses, n);
  ECDRA_ASSERT(mass > 0.0, "cannot normalize a zero-mass pmf");
  for (std::size_t i = 0; i < n; ++i) impulses[i].prob /= mass;
}

/// SoA twin of TotalMass, for the convolution pipeline: the fold order
/// (ascending, one accumulator) matches it element for element, which the
/// golden fixture depends on.
double TotalMassSoA(const double* probs, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += probs[i];
  return acc;
}

struct FoldResult {
  double mass;
  bool needs_coalesce;
};

/// Left-folds the total mass and, on the same pass, detects the two defects
/// a raw sorted cross product can carry: non-positive probabilities
/// (underflowed products) and exactly-equal adjacent values (FP absorption).
/// It also writes gaps[k - 1] = vals[k] - vals[k - 1], the gaps compaction
/// selects its boundaries from (`gaps` holds n - 1 entries). The branch-free
/// checks and gap stores ride the serial fold chain's idle issue slots, so
/// the clean common case costs little more than the fold alone. When a
/// defect is flagged the returned mass and the gaps are discarded and
/// recomputed post-coalesce.
FoldResult FoldAndCheck(const double* vals, const double* probs,
                        std::size_t n, double* gaps) {
  double mass = probs[0];  // == 0.0 + probs[0] bitwise for positive probs
  unsigned bad = !(probs[0] > 0.0);
  for (std::size_t k = 1; k < n; ++k) {
    mass += probs[k];
    bad |= static_cast<unsigned>(!(probs[k] > 0.0)) |
           static_cast<unsigned>(vals[k - 1] == vals[k]);
    gaps[k - 1] = vals[k] - vals[k - 1];
  }
  return FoldResult{mass, bad != 0};
}

/// Merges a sorted run [first, last) into a single impulse at the
/// probability-weighted mean value. With kNormalize, each probability is
/// divided by `divisor` as it is read: the convolution pipeline passes its
/// total mass here instead of running a separate normalization pass over
/// the arrays, and the quotient folded is bit-identical to the one that
/// pass would have stored (one rounding either way). Pre-normalized
/// callers use kNormalize = false, which folds the same bits a division by
/// 1.0 would produce without occupying the divider.
template <bool kNormalize>
Impulse MergeRun(const double* vals, const double* probs, std::size_t first,
                 std::size_t last, double divisor) {
  double mass = 0.0;
  double weighted = 0.0;
  for (std::size_t i = first; i < last; ++i) {
    const double q = kNormalize ? probs[i] / divisor : probs[i];
    mass += q;
    weighted += q * vals[i];
  }
  return Impulse{weighted / mass, mass};
}

/// Deep-mode audit of a freshly constructed pmf; a single thread-local
/// null-check when deep validation is inactive.
inline void DeepCheck(const Pmf& pmf, const char* op) {
  if (validate::DeepValidator() != nullptr) [[unlikely]] {
    ValidatePmfInvariants(pmf, op);
  }
}

/// Reusable per-thread buffers for the convolve/compact kernels, so the hot
/// path performs no heap allocation once warm. Trials are single-threaded
/// (one engine per thread), matching the obs/validate thread-local pattern.
struct PmfScratch {
  std::vector<double> vals;              // cross-product values, ascending
  std::vector<double> probs;             // matching probabilities
  std::vector<std::uint32_t> hist;       // bucket counts, then offsets
  std::vector<Impulse> pairs;            // std::sort fallback workspace
  std::vector<double> gaps;              // compaction: vals[k + 1] - vals[k]
  std::vector<std::uint32_t> survivors;  // compaction: gaps >= the bound
  std::vector<double> ranked;            // compaction: nth_element workspace
  std::vector<std::uint32_t> bounds;     // compaction: run ends, ascending
};

PmfScratch& Scratch() {
  thread_local PmfScratch scratch;
  return scratch;
}

/// Fills s.gaps from the first n entries of s.vals, for compaction callers
/// whose values did not come through FoldAndCheck's pass.
void WriteGaps(PmfScratch& s, std::size_t n) {
  s.gaps.resize(n);
  for (std::size_t k = 1; k < n; ++k) s.gaps[k - 1] = s.vals[k] - s.vals[k - 1];
}

/// Block width of the selection's lower bound. Fixed, so block starts
/// advance by addition and no index is ever divided.
constexpr std::size_t kGapBlock = 8;

/// Compaction boundary selection: writes to s.bounds, ascending, the run
/// ends (index + 1) of the `keep` largest of the m gaps, ties going to the
/// smaller index. Requires 1 <= keep < m and no NaN gap (the callers refuse
/// non-finite supports first: std::nth_element needs a strict weak order).
///
/// Linear time. The keep-th largest block maximum is a lower bound on the
/// keep-th largest gap, since keep distinct blocks each hold a gap at least
/// that large. So the filter `gap >= bound` keeps every selected gap and
/// every gap tied with the weakest selected one, and typically leaves a few
/// dozen of a 32-impulse compaction's hundreds of candidates. Among those
/// survivors nth_element finds the threshold (the keep-th largest gap), and
/// one walk in index order takes each gap above it and the first ties at it.
void SelectBoundaries(const double* gaps, std::size_t m, std::size_t keep,
                      PmfScratch& s) {
  double bound = -std::numeric_limits<double>::infinity();
  const std::size_t blocks = (m + kGapBlock - 1) / kGapBlock;
  if (blocks >= keep) {
    s.ranked.resize(blocks);
    double* const maxima = s.ranked.data();
    std::size_t b = 0;
    for (std::size_t start = 0; start < m; start += kGapBlock) {
      const std::size_t end = std::min(start + kGapBlock, m);
      double block_max = gaps[start];
      for (std::size_t k = start + 1; k < end; ++k) {
        block_max = std::max(block_max, gaps[k]);
      }
      maxima[b++] = block_max;
    }
    std::nth_element(maxima, maxima + (keep - 1), maxima + blocks,
                     std::greater<>());
    bound = maxima[keep - 1];
  }

  // Branch-free filter: every index is written, and kept by advancing.
  s.survivors.resize(m);
  std::uint32_t* const survivors = s.survivors.data();
  std::size_t count = 0;
  for (std::size_t k = 0; k < m; ++k) {
    survivors[count] = static_cast<std::uint32_t>(k);
    count += static_cast<std::size_t>(gaps[k] >= bound);
  }
  s.ranked.resize(count);
  double* const ranked = s.ranked.data();
  for (std::size_t i = 0; i < count; ++i) ranked[i] = gaps[survivors[i]];
  std::nth_element(ranked, ranked + (keep - 1), ranked + count,
                   std::greater<>());
  const double threshold = ranked[keep - 1];
  std::size_t above = 0;
  for (std::size_t i = 0; i < count; ++i) {
    above += static_cast<std::size_t>(ranked[i] > threshold);
  }
  std::size_t ties = keep - above;
  s.bounds.resize(keep);
  std::uint32_t* const bounds = s.bounds.data();
  std::size_t w = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const double gap = gaps[survivors[i]];
    if (gap > threshold) {
      bounds[w++] = survivors[i] + 1;
    } else if (gap == threshold && ties > 0) {
      --ties;
      bounds[w++] = survivors[i] + 1;
    }
  }
  ECDRA_ASSERT(w == keep, "boundary selection lost a gap");
}

/// Per-bucket occupancy bound for the distribution sort below: past this,
/// the quadratic insertion repair would cost more than a comparison sort,
/// so SortCrossProduct falls back to std::sort.
constexpr std::uint32_t kBucketSkewLimit = 32;

/// The fused convolution front half: lays the |X|·|Y| cross product
/// {x_i + y_j, p_i·q_j} into s.vals / s.probs in ascending value order and
/// returns its size (uncoalesced; zero-probability underflows kept).
///
/// With kTrackOrder the payload carried beside each value is not its
/// probability but its (i, j) index pair, packed as i << 8 | j into
/// `order` (CrossOrder's storage; the caller guarantees i, j < 256 and n
/// entries of room). The order is only trusted when the stable bucket pass
/// produced it, so that mode returns 0 instead of taking the std::sort
/// fallback, whose tie order is unspecified.
///
/// Comparison-sorting the cross product dominated the old kernel, and a
/// heap-based k-way merge of the |X| sorted runs is latency-bound on
/// dependent loads, so the sort is distribution-based instead: a monotone
/// affine map classifies every term into one of ~n/2 value buckets
/// (counting sort), and a single insertion pass repairs the remaining
/// intra-bucket disorder. Correctness never rests on the bucket math — the
/// insertion pass is a full sort and the map is monotone (so equal values
/// share a bucket and bucket order respects value order); bucketing only
/// bounds the number of inversions. Collapsed / overflowed value ranges and
/// heavily skewed supports fall back to std::sort.
///
/// Bit-identity notes: sums and products are commutative, so each term is
/// bit-identical to the old kernel's; the insertion pass uses strict
/// compares, so exactly-equal sums stay in generation order and their
/// probabilities left-fold downstream just as the sort-based path did.
template <bool kTrackOrder>
std::size_t SortCrossProduct(std::span<const Impulse> xs,
                             std::span<const Impulse> ys, PmfScratch& s,
                             std::uint16_t* order) {
  const std::size_t nx = xs.size();
  const std::size_t ny = ys.size();
  const std::size_t n = nx * ny;
  s.vals.resize(n);
  double* const vals = s.vals.data();
  double* probs = nullptr;
  if constexpr (!kTrackOrder) {
    s.probs.resize(n);
    probs = s.probs.data();
  }
  // Stores term (i, j) at position pos.
  const auto put = [&](std::size_t pos, std::size_t i, std::size_t j,
                       double v) {
    vals[pos] = v;
    if constexpr (kTrackOrder) {
      order[pos] = static_cast<std::uint16_t>(i << 8 | j);
    } else {
      probs[pos] = xs[i].prob * ys[j].prob;
    }
  };

  // Degenerate factor: the cross product is one already-sorted run (FP
  // addition is monotone).
  if (nx == 1 || ny == 1) {
    for (std::size_t i = 0; i < nx; ++i) {
      for (std::size_t j = 0; j < ny; ++j) {
        put(i * ny + j, i, j, xs[i].value + ys[j].value);
      }
    }
    return n;
  }

  // The sorted endpoints bound every sum (monotone FP addition), giving the
  // bucket map's range. A non-finite or zero width (overflow, or the whole
  // support absorbed into one double) disables bucketing via scale == 0.
  const double lo = xs[0].value + ys[0].value;
  const double hi = xs[nx - 1].value + ys[ny - 1].value;
  const double width = hi - lo;
  // ~1 bucket per term: measured best trade between insertion repair work
  // (fewer collisions) and histogram/prefix cost, which grows with nb.
  const std::size_t nb =
      std::min<std::size_t>(std::bit_ceil(n), std::size_t{1} << 14);
  double scale = 0.0;
  if (width > 0.0 && std::isfinite(width)) {
    scale = static_cast<double>(nb) / width;
    if (!std::isfinite(scale)) scale = 0.0;  // denormal width
  }

  if (scale > 0.0) {
    s.hist.assign(nb, 0);
    std::uint32_t* const hist = s.hist.data();
    const auto limit = static_cast<std::uint32_t>(nb - 1);
    // Histogram pass. The bucket index is recomputed in the scatter pass
    // below instead of being staged in an array: regenerating it is a few
    // ALU ops per term, while staging would stream 2·4n bytes through a
    // cache the vals/probs arrays already fill. The index is a pure
    // function of the sum v, so both passes agree bucket-for-bucket.
    for (std::size_t i = 0; i < nx; ++i) {
      const double xv = xs[i].value;
      for (std::size_t j = 0; j < ny; ++j) {
        // v ∈ [lo, hi] and finite, so (v - lo) * scale is a small
        // non-negative double; the min guards the v == hi rounding edge.
        const double v = xv + ys[j].value;
        ++hist[std::min(static_cast<std::uint32_t>((v - lo) * scale), limit)];
      }
    }
    // Exclusive prefix sum: hist[b] becomes bucket b's scatter offset.
    std::uint32_t sum = 0;
    std::uint32_t max_count = 0;
    for (std::size_t b = 0; b < nb; ++b) {
      const std::uint32_t count = hist[b];
      hist[b] = sum;
      sum += count;
      max_count = std::max(max_count, count);
    }
    if (max_count <= kBucketSkewLimit) {
      // Scatter; regenerating each sum is cheaper than staging all of them.
      // Within a bucket, terms land in generation order.
      for (std::size_t i = 0; i < nx; ++i) {
        const double xv = xs[i].value;
        for (std::size_t j = 0; j < ny; ++j) {
          const double v = xv + ys[j].value;
          const auto b =
              std::min(static_cast<std::uint32_t>((v - lo) * scale), limit);
          put(hist[b]++, i, j, v);
        }
      }
      // One insertion pass repairs intra-bucket disorder; strict compares
      // keep equal values stable. The payload moves with its value.
      for (std::size_t k = 1; k < n; ++k) {
        const double v = vals[k];
        if (v >= vals[k - 1]) continue;
        std::size_t m = k;
        if constexpr (kTrackOrder) {
          const std::uint16_t e = order[k];
          do {
            vals[m] = vals[m - 1];
            order[m] = order[m - 1];
            --m;
          } while (m > 0 && vals[m - 1] > v);
          order[m] = e;
        } else {
          const double p = probs[k];
          do {
            vals[m] = vals[m - 1];
            probs[m] = probs[m - 1];
            --m;
          } while (m > 0 && vals[m - 1] > v);
          probs[m] = p;
        }
        vals[m] = v;
      }
      return n;
    }
  }
  if constexpr (kTrackOrder) {
    return 0;
  } else {
    // Fallback for the degenerate / skewed cases above.
    s.pairs.resize(n);
    std::size_t idx = 0;
    for (std::size_t i = 0; i < nx; ++i) {
      const double xv = xs[i].value;
      const double xp = xs[i].prob;
      for (std::size_t j = 0; j < ny; ++j) {
        s.pairs[idx++] = Impulse{xv + ys[j].value, xp * ys[j].prob};
      }
    }
    std::sort(
        s.pairs.begin(), s.pairs.end(),
        [](const Impulse& a, const Impulse& b) { return a.value < b.value; });
    for (std::size_t k = 0; k < n; ++k) {
      vals[k] = s.pairs[k].value;
      probs[k] = s.pairs[k].prob;
    }
    return n;
  }
}

/// Drops non-positive probabilities (products can underflow to zero) and
/// merges exactly-equal adjacent values, left-folding their probabilities —
/// the same rules FromImpulses applies. Returns the new length. Only called
/// when FoldAndCheck flagged a defect.
std::size_t CoalesceSortedSoA(double* vals, double* probs, std::size_t n) {
  std::size_t w = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (probs[i] <= 0.0) continue;
    if (w > 0 && vals[w - 1] == vals[i]) {
      probs[w - 1] += probs[i];
    } else {
      vals[w] = vals[i];
      probs[w] = probs[i];
      ++w;
    }
  }
  return w;
}

/// The shared compaction kernel (see Pmf::Compact for the algorithm): greedy
/// run merging with the (max_impulses - 1) largest gaps as boundaries, ties
/// going to the smaller index (SelectBoundaries). The caller guarantees
/// n > max_impulses >= 1 and, when max_impulses > 1, that s.gaps holds the
/// n - 1 gaps of vals; `out` is overwritten. The golden paper-grid fixture
/// depends on this arithmetic bit for bit: the boundary set (ties to the
/// smaller index), the left-to-right fold of each run, and the division by
/// `divisor` as each probability is read.
template <bool kNormalize>
void CompactSoA(const double* vals, const double* probs, std::size_t n,
                std::size_t max_impulses, ImpulseVec& out, double divisor) {
  obs::Bump(&obs::Counters::pmf_compactions);
  out.clear();
  out.reserve(max_impulses);
  std::size_t run_start = 0;
  if (max_impulses > 1) {
    PmfScratch& s = Scratch();
    SelectBoundaries(s.gaps.data(), n - 1, max_impulses - 1, s);
    for (const std::uint32_t run_end : s.bounds) {
      out.push_back(
          MergeRun<kNormalize>(vals, probs, run_start, run_end, divisor));
      run_start = run_end;
    }
  }
  out.push_back(MergeRun<kNormalize>(vals, probs, run_start, n, divisor));
  ECDRA_ASSERT(out.size() <= max_impulses, "compaction overshot its bound");
}

/// AoS entry point for the cold callers (FromImpulses, Pmf::Compact):
/// stages the impulses into the SoA scratch, then runs the shared kernel.
/// `in` must not point into the scratch arrays.
void CompactInto(const Impulse* in, std::size_t n, std::size_t max_impulses,
                 ImpulseVec& out) {
  PmfScratch& s = Scratch();
  s.vals.resize(n);
  s.probs.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.vals[i] = in[i].value;
    s.probs[i] = in[i].prob;
  }
  WriteGaps(s, n);
  CompactSoA<false>(s.vals.data(), s.probs.data(), n, max_impulses, out,
                    /*divisor=*/1.0);
}

/// Builds an ImpulseVec from the SoA arrays (the no-compaction exit of the
/// convolution pipeline; n is at most max_impulses there).
void AssignSoA(ImpulseVec& out, const double* vals, const double* probs,
               std::size_t n) {
  out.clear();
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(Impulse{vals[i], probs[i]});
}

/// The convolution back half, shared by ConvolveInto and the epoch path
/// (ConvolveTruncatedInto): s.vals / s.probs hold the n raw cross-product
/// terms in ascending value order. One pass sums the mass, writes the gaps
/// and checks for non-positive probabilities or equal adjacent values;
/// products of valid impulse probabilities are positive, so a defect only
/// appears when floating-point addition collapsed two sums to the same
/// value — rare enough to pay for a recoalesce + refold. Non-finite values
/// are refused before any boundary is selected. The compacting path never
/// materializes normalized probabilities: MergeRun divides each one by the
/// total mass as it folds, producing the same bits a separate normalization
/// pass would have stored.
void FinishConvolution(PmfScratch& s, std::size_t n, std::size_t max_impulses,
                       ImpulseVec& out) {
  double* const vals = s.vals.data();
  double* const probs = s.probs.data();
  s.gaps.resize(n);
  FoldResult fold = FoldAndCheck(vals, probs, n, s.gaps.data());
  if (fold.needs_coalesce) [[unlikely]] {
    n = CoalesceSortedSoA(vals, probs, n);
    ECDRA_REQUIRE(n > 0, "pmf needs at least one positive-probability impulse");
    fold.mass = TotalMassSoA(probs, n);
    WriteGaps(s, n);  // coalescing moved values
  }
  // Values ascend, so the two endpoints being finite bounds every interior
  // sum; probabilities are products in (0, 1] and cannot overflow.
  ECDRA_REQUIRE(std::isfinite(vals[0]) && std::isfinite(vals[n - 1]),
                "pmf impulses must be finite");
  ECDRA_ASSERT(fold.mass > 0.0, "cannot normalize a zero-mass pmf");
  if (n <= max_impulses) {
    for (std::size_t i = 0; i < n; ++i) probs[i] /= fold.mass;
    AssignSoA(out, vals, probs, n);
  } else {
    CompactSoA<true>(vals, probs, n, max_impulses, out, fold.mass);
  }
}

/// Restores the strictly-increasing support invariant after an affine value
/// transform: a large shift (or extreme scale factor) can absorb the gap
/// between adjacent support values into exactly-equal doubles, which every
/// downstream consumer of the class invariant would mis-handle. Adjacent
/// equal values are merged by summing their probabilities, the same
/// coalescing rule FromImpulses applies.
void CoalesceEqualValuesInPlace(ImpulseVec& impulses) {
  Impulse* const base = impulses.data();
  const std::size_t n = impulses.size();
  std::size_t i = 1;
  while (i < n && base[i - 1].value != base[i].value) ++i;
  if (i == n) return;  // common case: no FP absorption happened
  std::size_t out = i - 1;
  for (; i < n; ++i) {
    if (base[out].value == base[i].value) {
      base[out].prob += base[i].prob;
    } else {
      base[++out] = base[i];
    }
  }
  impulses.truncate(out + 1);
}

}  // namespace

Pmf Pmf::Delta(double value) {
  ImpulseVec one;
  one.push_back(Impulse{value, 1.0});
  return Pmf(std::move(one));
}

Pmf Pmf::FromImpulses(std::vector<Impulse> impulses,
                      std::size_t max_impulses) {
  ECDRA_REQUIRE(max_impulses >= 1, "max_impulses must be at least 1");
  std::erase_if(impulses, [](const Impulse& imp) { return imp.prob <= 0.0; });
  ECDRA_REQUIRE(!impulses.empty(),
                "pmf needs at least one positive-probability impulse");
  for (const Impulse& imp : impulses) {
    ECDRA_REQUIRE(std::isfinite(imp.value) && std::isfinite(imp.prob),
                  "pmf impulses must be finite");
  }
  std::sort(impulses.begin(), impulses.end(),
            [](const Impulse& a, const Impulse& b) { return a.value < b.value; });
  // Coalesce exactly-equal values.
  std::vector<Impulse> merged;
  merged.reserve(impulses.size());
  for (const Impulse& imp : impulses) {
    if (!merged.empty() && merged.back().value == imp.value) {
      merged.back().prob += imp.prob;
    } else {
      merged.push_back(imp);
    }
  }
  NormalizeMass(merged.data(), merged.size());
  Pmf result;
  if (merged.size() <= max_impulses) {
    result.impulses_.assign(merged.data(), merged.size());
  } else {
    CompactInto(merged.data(), merged.size(), max_impulses, result.impulses_);
  }
  DeepCheck(result, "from-impulses");
  return result;
}

double Pmf::Min() const {
  ECDRA_REQUIRE(!empty(), "Min of empty pmf");
  return impulses_.front().value;
}

double Pmf::Max() const {
  ECDRA_REQUIRE(!empty(), "Max of empty pmf");
  return impulses_.back().value;
}

double Pmf::Expectation() const {
  ECDRA_REQUIRE(!empty(), "Expectation of empty pmf");
  double acc = 0.0;
  for (const Impulse& imp : impulses_) acc += imp.value * imp.prob;
  return acc;
}

double Pmf::Variance() const {
  const double mean = Expectation();
  double acc = 0.0;
  for (const Impulse& imp : impulses_) {
    const double d = imp.value - mean;
    acc += d * d * imp.prob;
  }
  return acc;
}

double Pmf::CdfAt(double t) const {
  ECDRA_REQUIRE(!empty(), "CdfAt of empty pmf");
  double acc = 0.0;
  for (const Impulse& imp : impulses_) {
    if (imp.value > t) break;
    acc += imp.prob;
  }
  return std::min(acc, 1.0);
}

Pmf Pmf::Shift(double dt) const {
  Pmf shifted = *this;
  shifted.ShiftInPlace(dt);
  return shifted;
}

void Pmf::ShiftInPlace(double dt) {
  ECDRA_REQUIRE(!empty(), "Shift of empty pmf");
  ECDRA_REQUIRE(std::isfinite(dt), "shift offset must be finite");
  Impulse* const base = impulses_.data();
  const std::size_t n = impulses_.size();
  base[0].value += dt;
  bool collapsed = false;
  for (std::size_t i = 1; i < n; ++i) {
    base[i].value += dt;
    collapsed |= base[i].value == base[i - 1].value;
  }
  if (collapsed) [[unlikely]] CoalesceEqualValuesInPlace(impulses_);
  DeepCheck(*this, "shift");
}

Pmf Pmf::ScaleValues(double factor) const {
  Pmf scaled = *this;
  scaled.ScaleValuesInPlace(factor);
  return scaled;
}

void Pmf::ScaleValuesInPlace(double factor) {
  ECDRA_REQUIRE(!empty(), "ScaleValues of empty pmf");
  ECDRA_REQUIRE(std::isfinite(factor) && factor > 0.0,
                "scale factor must be positive");
  Impulse* const base = impulses_.data();
  const std::size_t n = impulses_.size();
  base[0].value *= factor;
  bool collapsed = false;
  for (std::size_t i = 1; i < n; ++i) {
    base[i].value *= factor;
    collapsed |= base[i].value == base[i - 1].value;
  }
  if (collapsed) [[unlikely]] CoalesceEqualValuesInPlace(impulses_);
  DeepCheck(*this, "scale-values");
}

TruncateResult Pmf::TruncateBelow(double t) const {
  // Built in place: moving a small-buffer Pmf into the aggregate would copy
  // the inline impulses a second time.
  TruncateResult result{*this, 0.0};
  result.retained_mass = result.pmf.TruncateBelowInPlace(t);
  return result;
}

double Pmf::TruncateBelowInPlace(double t) {
  ECDRA_REQUIRE(!empty(), "TruncateBelow of empty pmf");
  obs::Bump(&obs::Counters::pmf_truncations);
  const TruncationPoint cut = TruncationAt(t);
  if (cut.delta_fallback) {
    // The model's entire predicted completion window is in the past — or
    // what survives is at most kMassTolerance, too little to renormalize
    // into a meaningful distribution: treat completion as imminent (§IV-B
    // boundary case). The reported retained mass is the true sum over the
    // surviving impulses (exactly 0.0 only when nothing survived), never
    // zeroed just because the Delta fallback was taken.
    impulses_.clear();
    impulses_.push_back(Impulse{t, 1.0});
    return cut.retained;
  }
  impulses_.remove_prefix(cut.first);
  for (Impulse& imp : impulses_) imp.prob /= cut.retained;
  DeepCheck(*this, "truncate");
  return cut.retained;
}

Pmf::TruncationPoint Pmf::TruncationAt(double t) const noexcept {
  const Impulse* const base = impulses_.data();
  const std::size_t n = impulses_.size();
  TruncationPoint cut;
  while (cut.first < n && base[cut.first].value < t) ++cut.first;
  for (std::size_t i = cut.first; i < n; ++i) cut.retained += base[i].prob;
  cut.delta_fallback = cut.first == n || cut.retained <= kMassTolerance;
  return cut;
}

double Pmf::Sample(util::RngStream& rng) const {
  ECDRA_REQUIRE(!empty(), "Sample of empty pmf");
  const double u = rng.UniformReal(0.0, 1.0);
  double acc = 0.0;
  for (const Impulse& imp : impulses_) {
    acc += imp.prob;
    if (u <= acc) return imp.value;
  }
  return impulses_.back().value;  // guard against rounding at u ~= 1
}

Pmf Pmf::Compact(std::size_t max_impulses) const {
  ECDRA_REQUIRE(max_impulses >= 1, "max_impulses must be at least 1");
  if (impulses_.size() <= max_impulses) return *this;
  Pmf result;
  CompactInto(impulses_.data(), impulses_.size(), max_impulses,
              result.impulses_);
  DeepCheck(result, "compact");
  return result;
}

void ConvolveInto(const Pmf& x, const Pmf& y, std::size_t max_impulses,
                  Pmf& out) {
  ECDRA_REQUIRE(!x.empty() && !y.empty(), "Convolve of empty pmf");
  ECDRA_REQUIRE(max_impulses >= 1, "max_impulses must be at least 1");
  obs::Bump(&obs::Counters::pmf_convolutions);
  PmfScratch& s = Scratch();
  const std::size_t n =
      SortCrossProduct<false>(x.impulses(), y.impulses(), s, nullptr);
  // All reads of x and y are done; only now touch out, so `out` may alias
  // either input (suffix-convolution chains rely on this).
  FinishConvolution(s, n, max_impulses, out.impulses_);
  DeepCheck(out, "convolve");
}

Pmf Convolve(const Pmf& x, const Pmf& y, std::size_t max_impulses) {
  Pmf result;
  ConvolveInto(x, y, max_impulses, result);
  return result;
}

bool CrossOrder::Build(const Pmf& x, const Pmf& y) {
  entries_.clear();
  const std::size_t nx = x.size();
  const std::size_t ny = y.size();
  if (nx == 0 || ny == 0 || nx > kMaxSide || ny > kMaxSide ||
      nx * ny > kCapacity) {
    return false;
  }
  entries_.resize(nx * ny);
  PmfScratch& s = Scratch();
  const std::size_t n =
      SortCrossProduct<true>(x.impulses(), y.impulses(), s, entries_.data());
  // An exact tie leaves the relative order of the two terms to the sort
  // that happens to run, so only a tie-free order is unique.
  const double* const vals = s.vals.data();
  bool unique = n != 0;
  for (std::size_t k = 1; unique && k < n; ++k) {
    unique = vals[k - 1] != vals[k];
  }
  if (!unique) entries_.clear();
  return unique;
}

void ConvolveTruncatedInto(const Pmf& x, const Pmf::TruncationPoint& cut,
                           const Pmf& y, const CrossOrder& order,
                           std::size_t max_impulses, Pmf& out) {
  ECDRA_REQUIRE(!cut.delta_fallback && cut.first < x.size(),
                "the epoch path needs a cut that keeps an impulse");
  ECDRA_REQUIRE(order.size() == x.size() * y.size(),
                "cross order was built for other pmfs");
  ECDRA_REQUIRE(max_impulses >= 1, "max_impulses must be at least 1");
  obs::Bump(&obs::Counters::pmf_truncations);
  obs::Bump(&obs::Counters::pmf_convolutions);
  const auto xs = x.impulses();
  const auto ys = y.impulses();
  // The probabilities TruncateBelowInPlace would store for the surviving
  // rows; rows below the cut get 0, and their terms are overwritten below.
  std::array<double, CrossOrder::kMaxSide> row_prob;
  std::fill(row_prob.begin(), row_prob.begin() + cut.first, 0.0);
  for (std::size_t r = cut.first; r < xs.size(); ++r) {
    row_prob[r] = xs[r].prob / cut.retained;
  }
  PmfScratch& s = Scratch();
  s.vals.resize(order.size());
  s.probs.resize(order.size());
  double* const vals = s.vals.data();
  double* const probs = s.probs.data();
  // Walk the epoch's value order, keeping the surviving rows' terms. The
  // sequence is exactly the sorted cross product of the truncated pmf
  // with y: the same sums, the same products, and (tie-free) the only
  // ascending arrangement of them.
  std::size_t n = 0;
  for (const std::uint16_t entry : order.entries()) {
    const std::size_t r = entry >> 8;
    const std::size_t c = entry & 0xFFu;
    vals[n] = xs[r].value + ys[c].value;
    probs[n] = row_prob[r] * ys[c].prob;
    n += static_cast<std::size_t>(r >= cut.first);
  }
  FinishConvolution(s, n, max_impulses, out.impulses_);
  DeepCheck(out, "convolve");
}

void MaxInto(const Pmf& x, const Pmf& y, std::size_t max_impulses, Pmf& out) {
  ECDRA_REQUIRE(max_impulses >= 1, "max_impulses must be at least 1");
  ECDRA_REQUIRE(!x.empty() || !y.empty(), "Max of two empty pmfs");
  // Empty acts as the identity (the max over zero siblings) so a gang fold
  // can start from a default-constructed accumulator.
  if (x.empty() || y.empty()) {
    const Pmf& src = x.empty() ? y : x;
    if (&out != &src) out = src;
    return;
  }
  obs::Bump(&obs::Counters::pmf_max_ops);
  // P(max(X, Y) <= t) = F_X(t) * F_Y(t). Sweep the union support ascending,
  // carrying both running CDFs; each union value contributes the increment
  // of the CDF product. Values where one factor is still zero contribute
  // nothing and are skipped, so the result's support starts at
  // max(x.Min(), y.Min()).
  PmfScratch& s = Scratch();
  const auto xs = x.impulses();
  const auto ys = y.impulses();
  s.vals.resize(xs.size() + ys.size());
  s.probs.resize(xs.size() + ys.size());
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t n = 0;
  double fx = 0.0;
  double fy = 0.0;
  double prev_cdf = 0.0;
  while (i < xs.size() || j < ys.size()) {
    const bool from_x =
        j == ys.size() || (i < xs.size() && xs[i].value <= ys[j].value);
    const double v = from_x ? xs[i].value : ys[j].value;
    if (i < xs.size() && xs[i].value == v) fx += xs[i++].prob;
    if (j < ys.size() && ys[j].value == v) fy += ys[j++].prob;
    const double cdf = fx * fy;
    const double prob = cdf - prev_cdf;
    prev_cdf = cdf;
    if (prob > 0.0) {
      s.vals[n] = v;
      s.probs[n] = prob;
      ++n;
    }
  }
  // The last union value completes both CDFs, so its increment is positive
  // and the result is never empty; the total mass is the telescoped product
  // of the two input masses.
  ECDRA_ASSERT(n > 0 && prev_cdf > 0.0, "max produced an empty pmf");
  ECDRA_REQUIRE(std::isfinite(s.vals[0]) && std::isfinite(s.vals[n - 1]),
                "pmf impulses must be finite");
  // All reads of x and y are done; only now touch out, so `out` may alias
  // either input, mirroring ConvolveInto.
  if (n <= max_impulses) {
    double* const probs = s.probs.data();
    for (std::size_t k = 0; k < n; ++k) probs[k] /= prev_cdf;
    AssignSoA(out.impulses_, s.vals.data(), probs, n);
  } else {
    WriteGaps(s, n);
    CompactSoA<true>(s.vals.data(), s.probs.data(), n, max_impulses,
                     out.impulses_, prev_cdf);
  }
  DeepCheck(out, "max");
}

Pmf MaxOf(const Pmf& x, const Pmf& y, std::size_t max_impulses) {
  Pmf result;
  MaxInto(x, y, max_impulses, result);
  return result;
}

double ProbSumLeq(const Pmf& x, const Pmf& y, double t) {
  ECDRA_REQUIRE(!x.empty() && !y.empty(), "ProbSumLeq of empty pmf");
  obs::Bump(&obs::Counters::pmf_prob_sum_leq);
  // P(X + Y <= t) = sum_i P(X = x_i) * F_Y(t - x_i). As x_i ascends the
  // evaluation point t - x_i descends, so a single backwards sweep over Y's
  // suffix suffices.
  const auto xs = x.impulses();
  const auto ys = y.impulses();
  std::size_t j = ys.size();
  double y_cdf = 1.0;  // P(Y <= ys[j-1].value) for the current j
  double acc = 0.0;
  for (const Impulse& xi : xs) {
    const double limit = t - xi.value;
    while (j > 0 && ys[j - 1].value > limit) {
      y_cdf -= ys[j - 1].prob;
      --j;
    }
    if (j == 0) break;  // every remaining x_i is larger, contributes nothing
    acc += xi.prob * y_cdf;
  }
  return std::clamp(acc, 0.0, 1.0);
}

void ValidatePmfInvariants(const Pmf& pmf, std::string_view op) {
  validate::TrialValidator* validator = validate::ActiveValidator();
  if (validator == nullptr) return;
  validator->CountChecks(2);  // mass conservation + support ordering

  const auto impulses = pmf.impulses();
  if (impulses.empty()) {
    validator->Fail("pmf-support", -1.0,
                    std::string(op) + " produced an empty pmf");
    return;
  }
  const double mass = TotalMass(impulses.data(), impulses.size());
  if (!(std::fabs(mass - 1.0) <= Pmf::kMassTolerance)) {
    std::ostringstream os;
    os << op << " lost probability mass: |mass - 1| = "
       << std::fabs(mass - 1.0) << " > " << Pmf::kMassTolerance;
    validator->Fail("pmf-mass", -1.0, os.str());
  }
  for (std::size_t i = 0; i < impulses.size(); ++i) {
    const bool ordered = i == 0 || impulses[i - 1].value < impulses[i].value;
    if (!ordered || !(impulses[i].prob > 0.0) ||
        !std::isfinite(impulses[i].value) || !std::isfinite(impulses[i].prob)) {
      std::ostringstream os;
      os << op << " broke the support invariant at impulse " << i << " ("
         << impulses[i].value << ", " << impulses[i].prob << ")";
      validator->Fail("pmf-support", -1.0, os.str());
      break;
    }
  }
}

std::ostream& operator<<(std::ostream& os, const Pmf& pmf) {
  os << "Pmf{";
  for (std::size_t i = 0; i < pmf.size(); ++i) {
    if (i != 0) os << ", ";
    os << "(" << pmf.impulses()[i].value << ", " << pmf.impulses()[i].prob
       << ")";
  }
  return os << "}";
}

}  // namespace ecdra::pmf
