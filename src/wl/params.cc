#include "wl/params.h"

#include "util/check.h"

namespace ccsim {

namespace {

/// Shared size/probability checks for the scalar workload and each class.
void ValidateSizes(int min_size, int max_size, int tran_size, double write_prob,
                   int64_t db_size) {
  CCSIM_CHECK_GE(min_size, 1);
  CCSIM_CHECK_LE(min_size, max_size);
  CCSIM_CHECK_LE(static_cast<int64_t>(max_size), db_size)
      << "largest transaction cannot exceed the database";
  CCSIM_CHECK_EQ((min_size + max_size) / 2, tran_size)
      << "tran_size must be the mean of min_size and max_size";
  CCSIM_CHECK_GE(write_prob, 0.0);
  CCSIM_CHECK_LE(write_prob, 1.0);
}

}  // namespace

void WorkloadParams::Validate() const {
  CCSIM_CHECK_GE(db_size, 1);
  ValidateSizes(min_size, max_size, tran_size, write_prob, db_size);
  if (!classes.empty()) {
    CCSIM_CHECK_EQ(read_only_fraction, 0.0)
        << "express a read-only class explicitly in the class mix";
    double total_fraction = 0.0;
    for (const TxnClass& cls : classes) {
      CCSIM_CHECK_GT(cls.fraction, 0.0) << "class " << cls.name;
      total_fraction += cls.fraction;
      ValidateSizes(cls.min_size, cls.max_size, cls.tran_size, cls.write_prob,
                    db_size);
    }
    CCSIM_CHECK(total_fraction > 0.999 && total_fraction < 1.001)
        << "class fractions must sum to 1";
  }
  CCSIM_CHECK_GE(num_terms, 1);
  CCSIM_CHECK_GE(mpl, 1);
  CCSIM_CHECK_GE(ext_think_time, 0);
  CCSIM_CHECK_GE(int_think_time, 0);
  CCSIM_CHECK_GE(obj_io, 0);
  CCSIM_CHECK_GE(obj_cpu, 0);
  CCSIM_CHECK_GE(cc_cpu, 0);
  CCSIM_CHECK(obj_io > 0 || obj_cpu > 0)
      << "object accesses must consume some resource";
  CCSIM_CHECK_GE(hot_fraction_db, 0.0);
  CCSIM_CHECK_LE(hot_fraction_db, 1.0);
  CCSIM_CHECK_GE(hot_access_prob, 0.0);
  CCSIM_CHECK_LE(hot_access_prob, 1.0);
  CCSIM_CHECK((hot_fraction_db == 0.0) == (hot_access_prob == 0.0))
      << "skew needs both hot_fraction_db and hot_access_prob";
  if (hot_fraction_db > 0.0) {
    int effective_max = max_size;
    for (const TxnClass& cls : classes) {
      effective_max = cls.max_size > effective_max ? cls.max_size : effective_max;
    }
    int64_t hot = HotSetSize();
    CCSIM_CHECK_GE(hot, 1);
    CCSIM_CHECK_LE(static_cast<int64_t>(effective_max), hot)
        << "largest transaction must fit in the hot set (an all-hot "
           "transaction samples without replacement)";
    CCSIM_CHECK_LE(static_cast<int64_t>(effective_max), db_size - hot)
        << "largest transaction must fit in the cold set";
  }
  CCSIM_CHECK_GE(read_only_fraction, 0.0);
  CCSIM_CHECK_LE(read_only_fraction, 1.0);
  CCSIM_CHECK_GE(buffer_hit_prob, 0.0);
  CCSIM_CHECK_LE(buffer_hit_prob, 1.0);
  CCSIM_CHECK_GE(log_io, 0);
}

int64_t WorkloadParams::HotSetSize() const {
  if (hot_fraction_db == 0.0) return 0;
  auto hot = static_cast<int64_t>(hot_fraction_db * static_cast<double>(db_size));
  return hot < 1 ? 1 : hot;
}

}  // namespace ccsim
