// MLC word packing: how many multi-level cells a word occupies.
//
// A multi-level FeFET cell stores bitsPerCell bits as one of 2^bitsPerCell
// polarization levels (device/mlc.hpp), so a word of wordBits bits spans
// ceil(wordBits / bitsPerCell) cells — the count sim::characterizeMlc scales
// the similarity search's line energy by. Ternary don't-care rows stay on
// binary (1-bit) cells; the serving-layer distance metric remains bitwise
// Hamming over trits (TernaryWord::mismatchCount — the exact functional
// contract). The MLC packing prices energy/margin, it does not change match
// semantics.
#pragma once

namespace fetcam::tcam {

/// Cells needed to hold `wordBits` bits at `bitsPerCell` bits each (the
/// last cell may be partially used). Throws SimError(InvalidSpec) on
/// non-positive arguments or bitsPerCell above device::kMaxMlcBitsPerCell.
int mlcCellsPerWord(int wordBits, int bitsPerCell);

}  // namespace fetcam::tcam
