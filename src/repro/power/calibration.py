"""Component-level calibration factors.

The circuit tier produces physically-plausible *relative* numbers; this
module pins them to the absolute scale GPUSimPow validated against
hardware.  McPAT works the same way: its analytic models carry
empirically fitted constants per structure class.

Every factor below is dimensionless and multiplies the analytic result
of one component class.  They were fitted once against the paper's
GT240 anchor data (Table IV static power / area, the Table V
blackscholes component breakdown) and are *not* per-benchmark: all
workloads and both GPUs share them.
"""

# -- energy (dynamic) calibration ---------------------------------------------
WCU_ENERGY = 26.0
RF_ENERGY = 0.31
LDST_ENERGY = 21.0
#: The SMEM/L1 banked array uses a separate (lower) energy calibration:
#: its per-access analytic energy is already close to published values,
#: unlike the AGU/coalescer logic blocks the main factor corrects.
LDST_SMEM_ENERGY = 3.5
L2_ENERGY = 1.0
NOC_FLIT_ENERGY = 1.0
MC_ACCESS_ENERGY = 1.0

# -- leakage calibration ------------------------------------------------------
WCU_LEAKAGE = 31.5
RF_LEAKAGE = 14.4
LDST_LEAKAGE = 29.7
L2_LEAKAGE = 10.0
NOC_LEAKAGE = 1.0
MC_LEAKAGE = 1.0

# -- area calibration ---------------------------------------------------------
AREA = 4.5

# -- empirical per-event energies (J), GPU-uncore structures ------------------
#: Energy of moving one flit through the NoC (router + link), 40 nm.
NOC_FLIT_ENERGY_J = 120e-12
#: Energy of one memory-controller access (scheduling + PHY launch), 40 nm.
MC_ACCESS_ENERGY_J = 2.5e-9

#: NoC router/link clocking while the chip is active (W per port); the
#: traffic-proportional flit energy comes on top.
NOC_ACTIVE_W_PER_PORT = 0.079
#: Memory controller PHY/DLL clocking while active (W per partition).
MC_ACTIVE_W_PER_PARTITION = 0.30

#: PCIe controller: PHY + SerDes run continuously while the link is
#: trained; per-lane static and active power at PCIe gen2, 40 nm.
PCIE_STATIC_W_PER_LANE = 0.034
PCIE_ACTIVE_W_PER_LANE = 0.0565

#: NoC static power per port (repeaters and router state), 40 nm.
NOC_STATIC_W_PER_PORT = 0.106
#: Memory controller static power per partition, 40 nm.
MC_STATIC_W_PER_PARTITION = 0.249
