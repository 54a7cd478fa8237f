#include "cc/flush_claims.h"

#include <sstream>

#include "audit/audit.h"

namespace ccsim {

void FlushClaims::Report(Auditor* auditor, TxnId txn, ObjectId obj,
                         const char* what) {
  std::ostringstream detail;
  detail << what << obj;
  auditor->Report(AuditInvariant::kWaitsForConsistency, txn, detail.str());
}

}  // namespace ccsim
