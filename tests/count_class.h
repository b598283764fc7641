// Value tags for the four count classes of kern/refcount.h, for suites that
// are parameterized by count class. The tags and their names keep the
// order and spelling of the count classes' E7a rows (locked / atomic /
// lockref / striped), so a suite's instance names do not depend on how
// its tests reach the class.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "kern/refcount.h"

namespace mach::testing {

enum class count_class : std::uint8_t { locked, atomic, lockref, striped };

inline constexpr count_class kCountClasses[] = {count_class::locked, count_class::atomic,
                                                count_class::lockref, count_class::striped};

// kobject embeds lockref_refcount (kern/object.h).
inline constexpr count_class kKObjectCountClass = count_class::lockref;

inline const char* count_class_name(count_class c) {
  switch (c) {
    case count_class::locked:
      return "locked";
    case count_class::atomic:
      return "atomic";
    case count_class::lockref:
      return "lockref";
    case count_class::striped:
      return "striped";
  }
  return "?";
}

// gtest instance-name generator for suites parameterized by count_class.
inline std::string count_class_param_name(const ::testing::TestParamInfo<count_class>& info) {
  return count_class_name(info.param);
}

// Calls f.template operator()<Count>() with the count class c names, so a
// value-parameterized test body is a template over the class.
template <typename F>
void with_count_class(count_class c, F&& f) {
  switch (c) {
    case count_class::locked:
      return std::forward<F>(f).template operator()<locked_refcount>();
    case count_class::atomic:
      return std::forward<F>(f).template operator()<atomic_refcount>();
    case count_class::lockref:
      return std::forward<F>(f).template operator()<lockref_refcount>();
    case count_class::striped:
      return std::forward<F>(f).template operator()<striped_refcount>();
  }
}

}  // namespace mach::testing
