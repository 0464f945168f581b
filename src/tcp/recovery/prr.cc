#include "tcp/recovery/recovery.h"

namespace prr::tcp {

RecoveryPolicy make_recovery_policy(RecoveryKind kind,
                                    core::ReductionBound bound) {
  switch (kind) {
    case RecoveryKind::kRfc3517:
      return Rfc3517Recovery();
    case RecoveryKind::kLinuxRateHalving:
      return RateHalvingRecovery();
    case RecoveryKind::kPrr:
      return PrrRecovery(bound);
  }
  return PrrRecovery(bound);
}

}  // namespace prr::tcp
