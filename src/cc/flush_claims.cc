#include "cc/flush_claims.h"

#include <sstream>

#include "audit/audit.h"
#include "util/check.h"

namespace ccsim {

void FlushClaims::Claim(TxnId writer, const std::vector<ObjectId>& objects) {
  for (ObjectId obj : objects) {
    Entry& entry = holders_.Touch(obj);
    CCSIM_CHECK_EQ(entry.holder, kInvalidTxn)
        << "object " << obj << " is already being flushed by txn "
        << entry.holder << "; txn " << writer << " cannot claim it";
    entry.holder = writer;
  }
}

void FlushClaims::Release(TxnId writer, const std::vector<ObjectId>& objects) {
  for (ObjectId obj : objects) {
    Entry* entry = holders_.Find(obj);
    CCSIM_CHECK(entry != nullptr && entry->holder == writer)
        << "txn " << writer << " releases an unclaimed flush of object " << obj;
    entry->holder = kInvalidTxn;
  }
}

void FlushClaims::Report(Auditor* auditor, TxnId txn, ObjectId obj,
                         const char* what) {
  std::ostringstream detail;
  detail << what << obj;
  auditor->Report(AuditInvariant::kWaitsForConsistency, txn, detail.str());
}

}  // namespace ccsim
