#include "tcam/mlc_encode.hpp"

#include "device/mlc.hpp"
#include "recover/sim_error.hpp"

namespace fetcam::tcam {

int mlcCellsPerWord(int wordBits, int bitsPerCell) {
    if (wordBits < 1)
        throw recover::SimError(recover::SimErrorReason::InvalidSpec, "mlcCellsPerWord",
                                "wordBits must be >= 1");
    if (bitsPerCell < 1 || bitsPerCell > device::kMaxMlcBitsPerCell)
        throw recover::SimError(recover::SimErrorReason::InvalidSpec, "mlcCellsPerWord",
                                "bitsPerCell must be in [1, 4]");
    return (wordBits + bitsPerCell - 1) / bitsPerCell;
}

}  // namespace fetcam::tcam
