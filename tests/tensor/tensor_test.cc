#include "runtime/tensor/tensor_block.h"

#include <gtest/gtest.h>

namespace sysds {
namespace {

TEST(TensorBlockTest, ConstructionAndLinearIndex) {
  TensorBlock t({2, 3, 4}, ValueType::kFP64);
  EXPECT_EQ(t.NumDims(), 3);
  EXPECT_EQ(t.CellCount(), 24);
  EXPECT_EQ(t.LinearIndex({0, 0, 0}), 0);
  EXPECT_EQ(t.LinearIndex({1, 2, 3}), 23);
  EXPECT_EQ(t.LinearIndex({0, 1, 2}), 6);
}

class TensorValueTypeTest : public ::testing::TestWithParam<ValueType> {};

TEST_P(TensorValueTypeTest, SetGetRoundtrip) {
  ValueType vt = GetParam();
  TensorBlock t({3, 3}, vt);
  t.SetDouble({1, 2}, 7.0);
  t.SetDouble({2, 0}, -2.0);
  if (vt == ValueType::kBoolean) {
    // Booleans store truthiness.
    EXPECT_DOUBLE_EQ(t.GetDouble({1, 2}), 1.0);
    EXPECT_DOUBLE_EQ(t.GetDouble({2, 0}), 1.0);
  } else {
    EXPECT_DOUBLE_EQ(t.GetDouble({1, 2}), 7.0);
    EXPECT_DOUBLE_EQ(t.GetDouble({2, 0}), -2.0);
  }
  EXPECT_DOUBLE_EQ(t.GetDouble({0, 0}), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllTypes, TensorValueTypeTest,
                         ::testing::Values(ValueType::kFP64, ValueType::kFP32,
                                           ValueType::kInt64,
                                           ValueType::kInt32,
                                           ValueType::kBoolean,
                                           ValueType::kString));

TEST(TensorBlockTest, StringCells) {
  TensorBlock t({2, 2}, ValueType::kString);
  t.SetString({0, 1}, "hello");
  EXPECT_EQ(t.GetString({0, 1}), "hello");
  EXPECT_EQ(t.GetString({1, 1}), "");
  t.SetString({1, 0}, "2.5");
  EXPECT_DOUBLE_EQ(t.GetDouble({1, 0}), 2.5);
}

TEST(TensorBlockTest, SumAndSlice3d) {
  TensorBlock t({2, 3, 2}, ValueType::kFP64);
  for (int64_t i = 0; i < t.CellCount(); ++i) {
    t.SetDoubleLinear(i, static_cast<double>(i));
  }
  auto s = t.Slice({0, 1, 0}, {1, 2, 1});
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->Dims(), (std::vector<int64_t>{2, 2, 2}));
  // The slice holds linear cells {2..5, 8..11} of the source.
  double sum = 0;
  for (int64_t i = 0; i < s->CellCount(); ++i) sum += s->GetDoubleLinear(i);
  EXPECT_DOUBLE_EQ(sum, 52.0);
  EXPECT_DOUBLE_EQ(s->GetDouble({0, 0, 0}), t.GetDouble({0, 1, 0}));
  EXPECT_DOUBLE_EQ(s->GetDouble({1, 1, 1}), t.GetDouble({1, 2, 1}));
  EXPECT_FALSE(t.Slice({0, 0, 0}, {2, 2, 1}).ok());  // out of bounds
}

}  // namespace
}  // namespace sysds
