// Unit tests for the DVF calculator (Eqs. 1–2).
#include "dvf/dvf/calculator.hpp"

#include <gtest/gtest.h>

#include "dvf/common/error.hpp"
#include "dvf/common/units.hpp"
#include "dvf/machine/cache_config.hpp"

namespace dvf {
namespace {

ModelSpec streaming_model() {
  ModelSpec model;
  model.name = "test";
  model.exec_time_seconds = 2.0;
  DataStructureSpec ds;
  ds.name = "A";
  ds.size_bytes = 80000;
  StreamingSpec s;
  s.element_bytes = 8;
  s.element_count = 10000;
  s.stride_elements = 1;
  ds.patterns.emplace_back(s);
  model.structures.push_back(std::move(ds));
  return model;
}

Machine machine() { return Machine::with_cache(caches::small_verification()); }

TEST(Calculator, Eq1DecomposesAsDocumented) {
  const DvfCalculator calc(machine());
  const ModelSpec model = streaming_model();
  const StructureDvf result =
      calc.try_for_structure(model.structures[0], 2.0).value_or_throw();

  EXPECT_EQ(result.name, "A");
  EXPECT_DOUBLE_EQ(result.size_bytes, 80000.0);
  EXPECT_DOUBLE_EQ(result.n_ha, 2500.0);  // 80000 B / 32 B lines
  EXPECT_DOUBLE_EQ(result.n_error, expected_errors(5000.0, 2.0, 80000.0));
  EXPECT_DOUBLE_EQ(result.dvf, result.n_error * result.n_ha);
}

TEST(Calculator, Eq2SumsStructures) {
  const DvfCalculator calc(machine());
  ModelSpec model = streaming_model();
  model.structures.push_back(model.structures[0]);
  model.structures[1].name = "B";
  const ApplicationDvf app = calc.try_for_model(model).value_or_throw();
  ASSERT_EQ(app.structures.size(), 2u);
  EXPECT_DOUBLE_EQ(app.total, app.structures[0].dvf + app.structures[1].dvf);
  EXPECT_NE(app.find("B"), nullptr);
  EXPECT_EQ(app.find("missing"), nullptr);
}

TEST(Calculator, DvfLinearInTime) {
  const DvfCalculator calc(machine());
  const ModelSpec model = streaming_model();
  const double at2 = calc.try_for_model(model, 2.0).value_or_throw().total;
  const double at4 = calc.try_for_model(model, 4.0).value_or_throw().total;
  EXPECT_DOUBLE_EQ(at4, 2.0 * at2);
}

TEST(Calculator, DvfLinearInFit) {
  const ModelSpec model = streaming_model();
  const DvfCalculator raw(Machine("m1", caches::small_verification(),
                                  MemoryModel(5000.0)));
  const DvfCalculator tenth(Machine("m2", caches::small_verification(),
                                    MemoryModel(500.0)));
  EXPECT_DOUBLE_EQ(raw.try_for_model(model).value_or_throw().total,
                   10.0 * tenth.try_for_model(model).value_or_throw().total);
}

TEST(Calculator, CompositePatternsSumTheirPhases) {
  const DvfCalculator calc(machine());
  ModelSpec model = streaming_model();
  const double single = calc.try_for_model(model).value_or_throw().total;
  model.structures[0].patterns.push_back(model.structures[0].patterns[0]);
  EXPECT_DOUBLE_EQ(calc.try_for_model(model).value_or_throw().total,
                   2.0 * single);
}

TEST(Calculator, MissingTimeIsAnError) {
  const DvfCalculator calc(machine());
  ModelSpec model = streaming_model();
  model.exec_time_seconds.reset();
  const auto missing = calc.try_for_model(model);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().kind, ErrorKind::kDomainError);
  EXPECT_TRUE(calc.try_for_model(model, 1.0).ok());
}

TEST(Calculator, RejectsNegativeTimeAndEmptyStructures) {
  const DvfCalculator calc(machine());
  const ModelSpec model = streaming_model();
  EXPECT_THROW(
      (void)calc.try_for_structure(model.structures[0], -1.0).value_or_throw(),
      InvalidArgumentError);
  DataStructureSpec empty;
  empty.name = "zero";
  EXPECT_THROW((void)calc.try_for_structure(empty, 1.0).value_or_throw(),
               InvalidArgumentError);
}

TEST(ModelSpec, WorkingSetAndLookup) {
  ModelSpec model = streaming_model();
  model.structures.push_back(model.structures[0]);
  model.structures[1].name = "B";
  model.structures[1].size_bytes = 20000;
  EXPECT_EQ(model.working_set_bytes(), 100000u);
  EXPECT_NE(model.find("A"), nullptr);
  EXPECT_EQ(model.find("C"), nullptr);
}

}  // namespace
}  // namespace dvf
