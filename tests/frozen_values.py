"""Hand-computed expected values frozen before the library was written.

Each constant was worked out on paper from the defining formulas; tests
assert the library reproduces them exactly (or to the stated tolerance).
"""

# Trimmed means ------------------------------------------------------------
# values 1..8, trim the top quarter: keep mass 6 -> mean(1..6), cutoff 6.
TRIM_18_Q25_UPPER_MEAN = 3.5
TRIM_18_Q25_UPPER_CUTOFF = 6.0
# same values, trim the bottom quarter: mean(3..8), cutoff 3.
TRIM_18_Q25_LOWER_MEAN = 5.5
TRIM_18_Q25_LOWER_CUTOFF = 3.0
# values {1,2,3,4}, q = 0.375: keep mass 2.5 -> (1 + 2 + 0.5*3)/2.5.
TRIM_1234_Q375_UPPER_MEAN = 1.8
TRIM_1234_Q375_UPPER_CUTOFF = 3.0

# Pooled-bounds hand dataset ------------------------------------------------
# 10 treated (8 observed with y = 1..8), 10 controls (6 observed, y = 1..6).
# q = 1 - 0.6/0.8 = 0.25; mu0 = 3.5; lower bound mean(1..6) - 3.5 = 0;
# upper bound mean(3..8) - 3.5 = 2.0.
HAND_Q = 0.25
HAND_MU0 = 3.5
HAND_MU1_LB = 3.5
HAND_MU1_UB = 5.5
HAND_DELTA_LB = 0.0
HAND_DELTA_UB = 2.0
HAND_CUT_LB = 6.0
HAND_CUT_UB = 3.0
# fitted parameter vector content on that dataset: treated share of the kept
# tail p = q = 0.25, control observed rate alpha = 6/10.
HAND_P = 0.25
HAND_ALPHA = 0.6

# Block designs --------------------------------------------------------------
# blocks (size, treated) = (4,1) and (6,3): shares 0.25 / 0.5, pooled 4/10.
DESIGN_ETAS = (0.25, 0.5)
DESIGN_P_HAT = 0.4

# Control-anchored treated share: blocks (size 4, 1 treated, 3 controls all
# observed -> rate 1.0) and (size 4, 2 treated, 1 of 2 controls observed ->
# rate 0.5): (1*1.0 + 2*0.5) / (4*1.0 + 4*0.5) = 2/6.
DELTA_HAND = 2.0 / 6.0

# Label-based variance -------------------------------------------------------
# Two blocks, all outcomes observed, treated outcomes constant at 5 and
# control outcomes constant at 2 in both blocks: (5 - 2)^2 = 9.
LABEL_VARIANCE_CONSTANT = 9.0
LABEL_GAMMA1 = 5.0
LABEL_GAMMA0 = 2.0

# Degenerate meat ------------------------------------------------------------
# One block of 4 with 2 treated and a constant moment vector: every
# cross-product term equals the same outer product, the correction cancels,
# and the assembled matrix is exactly zero.
CONSTANT_MOMENT_OMEGA = 0.0


# Seeded Monte Carlo output ----------------------------------------------------
# Unlike the values above, these are the program's own CSV text, captured
# once and frozen: they guard the Philox draw order and byte-identical
# output. Command: simulate --dgp 1 --n 200 --reps 3 --seed 5
# --estimator lee:iid --estimator lee:design, and simulate --dgp 2 --reps 3
# --seed 5 (its default panel).
SIMULATE_SEED = 5
DGP1_REPLICATIONS_CSV = (
    'rep,estimator,delta_lb,delta_ub,se_lb,se_ub,covered_lb,covered_ub,flags\n'
    '0,lee:iid,0.23328997961,1.74850618024,0.376189020775,0.381368902285,1,1,\n'
    '0,lee:design,0.23328997961,1.74850618024,0.32324482168,0.30705146404,1,1,\n'
    '1,lee:iid,0.597959520973,2.4123138336,0.445437410134,0.47399661171,1,1,\n'
    '1,lee:design,0.597959520973,2.4123138336,0.335650915372,0.367970435515,1,0,\n'
    '2,lee:iid,0.305264610025,0.975349741676,0.432291869147,0.443297614644,1,1,\n'
    '2,lee:design,0.305264610025,0.975349741676,0.328275884163,0.362033930585,1,1,\n'
)
DGP1_SUMMARY_CSV = (
    'estimator,reps,failed,mean_delta_lb,mean_delta_ub,sd_delta_lb,sd_delta_ub,mean_se_lb,mean_se_ub,coverage_lb,coverage_ub,flag_counts\n'
    'lee:iid,3,0,0.37883803687,1.71205658517,0.193146978886,0.719175138687,0.417972766685,0.432887709546,1,1,\n'
    'lee:design,3,0,0.37883803687,1.71205658517,0.193146978886,0.719175138687,0.329057207071,0.345685276713,1,0.666666666667,\n'
)
DGP2_REPLICATIONS_CSV = (
    'rep,estimator,delta_lb,delta_ub,se_lb,se_ub,covered_lb,covered_ub,flags\n'
    '0,lee-ipw:design,0.360296471013,4.62882836553,0.426505717417,0.59249993294,1,1,\n'
    '0,conditional-lee:none,1.60149890767,4.44466968817,nan,nan,,,stratum_trimming_clamped:2\n'
    '1,lee-ipw:design,-0.200639095378,4.52074470161,0.449104403074,0.631590069958,1,1,\n'
    '1,conditional-lee:none,1.25860154971,4.22169461951,nan,nan,,,stratum_trimming_clamped:7\n'
    '2,lee-ipw:design,0.180637922317,4.40395643712,0.449823806583,0.614365071373,1,1,\n'
    '2,conditional-lee:none,1.65809247664,4.20281849316,nan,nan,,,stratum_trimming_clamped:7\n'
)
DGP2_SUMMARY_CSV = (
    'estimator,reps,failed,mean_delta_lb,mean_delta_ub,sd_delta_lb,sd_delta_ub,mean_se_lb,mean_se_ub,coverage_lb,coverage_ub,flag_counts\n'
    'lee-ipw:design,3,0,0.113431765984,4.51784316809,0.286443149678,0.112464039672,0.441811309025,0.61281835809,1,1,\n'
    'conditional-lee:none,3,0,1.50606431134,4.28972760028,0.216169081526,0.134515296478,nan,nan,nan,nan,stratum_trimming_clamped:2=1;stratum_trimming_clamped:7=2\n'
)
