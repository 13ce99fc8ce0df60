// fetcam — umbrella header for the FeFET TCAM reproduction library.
//
// Layers (bottom-up):
//   numeric : linear algebra, interpolation, statistics, RNG
//   spice   : MNA nonlinear transient circuit engine
//   device  : MOSFET / ferroelectric / FeFET / ReRAM compact models
//   tcam    : ternary types, cell designs, netlist builders, write paths
//   array   : word-level simulation, array energy model, Monte Carlo
//   apps    : LPM routing, packet classification, TLB, dictionary, workloads
//   core    : design-space exploration and reporting
#pragma once

#include "apps/classifier.hpp"
#include "apps/lpm.hpp"
#include "apps/workloads.hpp"
#include "apps/dictionary.hpp"
#include "apps/tlb.hpp"
#include "array/bank.hpp"
#include "array/config.hpp"
#include "array/energy_model.hpp"
#include "array/montecarlo.hpp"
#include "array/word_sim.hpp"
#include "core/design_space.hpp"
#include "core/report.hpp"
#include "core/tuner.hpp"
#include "device/netlist.hpp"
#include "device/fefet.hpp"
#include "device/ferro.hpp"
#include "device/mosfet.hpp"
#include "device/passives.hpp"
#include "device/reram.hpp"
#include "device/sources.hpp"
#include "device/tech.hpp"
#include "spice/circuit.hpp"
#include "spice/ac.hpp"
#include "spice/dcop.hpp"
#include "spice/transient.hpp"
#include "tcam/cell.hpp"
#include "tcam/cell_builder.hpp"
#include "tcam/ternary.hpp"
#include "tcam/write.hpp"
#include "tcam/write_schedule.hpp"
