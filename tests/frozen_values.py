"""Hand-computed expected values frozen before the library was written.

Each constant was worked out on paper from the defining formulas; tests
assert the library reproduces them exactly (or to the stated tolerance).
The last three sections instead hold the program's own output text, captured
once and frozen as a guard against any change in it.
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

# estimate output on a hand CSV -------------------------------------------------
# The program's own stdout, captured once and frozen, like the Monte Carlo
# text above. Blocks a, b and c have one treated unit, an odd count, so one of
# them is paired outside the set; d's trimming share is clamped; c and e are
# dropped by conditional-lee. Command: estimate --estimator all --variance
# design|iid --format json|csv.
ESTIMATE_INPUT_CSV = (
    'y,s,d,block,x1\n'
    '2.5,1,1,a,0.1\n'
    '1.25,1,0,a,0.3\n'
    '0.75,1,0,a,-0.2\n'
    '3.0,1,1,b,1.1\n'
    '1.5,1,0,b,0.9\n'
    '2.25,1,0,b,1.4\n'
    '4.5,1,1,c,-1.3\n'
    '0.5,1,0,c,-0.8\n'
    ',0,0,c,-1.1\n'
    '1.0,1,0,c,-0.6\n'
    '3.5,1,1,d,0.4\n'
    ',0,1,d,0.2\n'
    '2.0,1,0,d,0.7\n'
    '1.75,1,0,d,0.5\n'
    '5.0,1,1,e,-0.4\n'
    '2.75,1,1,e,-0.1\n'
    ',0,0,e,-0.3\n'
    ',0,0,e,0.0\n'
    '3.25,1,1,f,0.6\n'
    '4.0,1,1,f,0.8\n'
    '2.5,1,1,f,1.0\n'
    '1.5,1,0,f,0.2\n'
    ',0,0,f,0.9\n'
    '0.25,1,0,f,0.4\n'
    '6.0,1,1,g,-0.7\n'
    '3.75,1,1,g,-0.5\n'
    '4.25,1,1,g,-0.9\n'
    '2.0,1,0,g,-0.6\n'
    '1.0,1,0,g,-1.0\n'
    ',0,0,g,-0.2\n'
    '2.75,1,1,h,1.6\n'
    '3.5,1,1,h,1.2\n'
    '5.5,1,1,h,1.8\n'
    ',0,0,h,1.3\n'
    '0.5,1,0,h,1.7\n'
    '2.5,1,0,h,1.5\n'
    '4.75,1,1,i,-1.5\n'
    '3.0,1,1,i,-1.7\n'
    '1.25,1,0,i,-1.4\n'
    '2.25,1,0,i,-1.9\n'
    '0.0,1,0,i,-1.6\n'
)
ESTIMATE_DESIGN_JSON = (
    '{\n'
    '  "results": [\n'
    '    {\n'
    '      "estimator": "lee",\n'
    '      "variance": "design",\n'
    '      "alpha": 0.05,\n'
    '      "n": 41,\n'
    '      "n_used": 34,\n'
    '      "delta_lb": 2.05065359477,\n'
    '      "delta_ub": 2.81290849673,\n'
    '      "q": 0.217391304348,\n'
    '      "mu0": 1.30882352941,\n'
    '      "mu1_lb": 3.35947712418,\n'
    '      "mu1_ub": 4.12173202614,\n'
    '      "cutoff_lb": 4.75,\n'
    '      "cutoff_ub": 2.75,\n'
    '      "se_lb": 0.367568529097,\n'
    '      "se_ub": 0.4127825716,\n'
    '      "ci_lb": [\n'
    '        1.33023251589,\n'
    '        2.77107467365\n'
    '      ],\n'
    '      "ci_ub": [\n'
    '        2.00386952295,\n'
    '        3.62194747051\n'
    '      ],\n'
    '      "ci_set": [\n'
    '        1.445206958,\n'
    '        3.49283019815\n'
    '      ],\n'
    '      "critical_set": 1.64716668823,\n'
    '      "flags": [],\n'
    '      "warnings": [\n'
    '        "heterogeneous_treated_shares: pooled trimming is biased for the always-observed effect; consider the weighted estimator"\n'
    '      ],\n'
    '      "notes": []\n'
    '    },\n'
    '    {\n'
    '      "estimator": "conditional-lee",\n'
    '      "variance": "none",\n'
    '      "alpha": null,\n'
    '      "n": 41,\n'
    '      "n_used": 34,\n'
    '      "delta_lb": 1.9595959596,\n'
    '      "delta_ub": 2.55050505051,\n'
    '      "q": 0.181818181818,\n'
    '      "mu0": 1.36994949495,\n'
    '      "mu1_lb": 3.32954545455,\n'
    '      "mu1_ub": 3.92045454545,\n'
    '      "cutoff_lb": null,\n'
    '      "cutoff_ub": null,\n'
    '      "se_lb": null,\n'
    '      "se_ub": null,\n'
    '      "ci_lb": null,\n'
    '      "ci_ub": null,\n'
    '      "ci_set": null,\n'
    '      "critical_set": null,\n'
    '      "flags": [\n'
    '        "stratum_trimming_clamped:1",\n'
    '        "strata_dropped:2"\n'
    '      ],\n'
    '      "warnings": [\n'
    '        "dropped strata: c (trimming share 0.33333333333333337 retains mass 0.666667 < 1 of 1 values); e (no observed outcomes in one arm)"\n'
    '      ],\n'
    '      "notes": [\n'
    '        "conditional-lee reports no variance; method set to none"\n'
    '      ],\n'
    '      "strata_used": 7,\n'
    '      "strata_dropped": 2\n'
    '    },\n'
    '    {\n'
    '      "estimator": "lee-ipw",\n'
    '      "variance": "design",\n'
    '      "alpha": 0.05,\n'
    '      "n": 41,\n'
    '      "n_used": 34,\n'
    '      "delta_lb": 1.74297752809,\n'
    '      "delta_ub": 2.80056179775,\n'
    '      "q": 0.254901960784,\n'
    '      "mu0": 1.33005617978,\n'
    '      "mu1_lb": 3.07303370787,\n'
    '      "mu1_ub": 4.13061797753,\n'
    '      "cutoff_lb": 4.26966292135,\n'
    '      "cutoff_ub": 2.98876404494,\n'
    '      "se_lb": 0.330905885622,\n'
    '      "se_ub": 0.52818965201,\n'
    '      "ci_lb": [\n'
    '        1.09441391,\n'
    '        2.39154114618\n'
    '      ],\n'
    '      "ci_ub": [\n'
    '        1.76532910281,\n'
    '        3.8357944927\n'
    '      ],\n'
    '      "ci_set": [\n'
    '        1.19826204035,\n'
    '        3.67003283594\n'
    '      ],\n'
    '      "critical_set": 1.64613417715,\n'
    '      "flags": [],\n'
    '      "warnings": [],\n'
    '      "notes": []\n'
    '    }\n'
    '  ]\n'
    '}\n'
)
ESTIMATE_DESIGN_CSV = (
    'estimator,variance,alpha,n,n_used,delta_lb,delta_ub,q,mu0,mu1_lb,mu1_ub,cutoff_lb,cutoff_ub,se_lb,se_ub,ci_lb_lo,ci_lb_hi,ci_ub_lo,ci_ub_hi,ci_set_lo,ci_set_hi,critical_set,flags,warnings,notes\n'
    'lee,design,0.05,41,34,2.05065359477,2.81290849673,0.217391304348,1.30882352941,3.35947712418,4.12173202614,4.75,2.75,0.367568529097,0.4127825716,1.33023251589,2.77107467365,2.00386952295,3.62194747051,1.445206958,3.49283019815,1.64716668823,,heterogeneous_treated_shares: pooled trimming is biased for the always-observed effect; consider the weighted estimator,\n'
    'conditional-lee,none,,41,34,1.9595959596,2.55050505051,0.181818181818,1.36994949495,3.32954545455,3.92045454545,nan,nan,,,,,,,,,,stratum_trimming_clamped:1;strata_dropped:2,dropped strata: c (trimming share 0.33333333333333337 retains mass 0.666667 < 1 of 1 values); e (no observed outcomes in one arm),conditional-lee reports no variance; method set to none\n'
    'lee-ipw,design,0.05,41,34,1.74297752809,2.80056179775,0.254901960784,1.33005617978,3.07303370787,4.13061797753,4.26966292135,2.98876404494,0.330905885622,0.52818965201,1.09441391,2.39154114618,1.76532910281,3.8357944927,1.19826204035,3.67003283594,1.64613417715,,,\n'
)
ESTIMATE_IID_JSON = (
    '{\n'
    '  "results": [\n'
    '    {\n'
    '      "estimator": "lee",\n'
    '      "variance": "iid",\n'
    '      "alpha": 0.05,\n'
    '      "n": 41,\n'
    '      "n_used": 34,\n'
    '      "delta_lb": 2.05065359477,\n'
    '      "delta_ub": 2.81290849673,\n'
    '      "q": 0.217391304348,\n'
    '      "mu0": 1.30882352941,\n'
    '      "mu1_lb": 3.35947712418,\n'
    '      "mu1_ub": 4.12173202614,\n'
    '      "cutoff_lb": 4.75,\n'
    '      "cutoff_ub": 2.75,\n'
    '      "se_lb": 0.34205007283,\n'
    '      "se_ub": 0.380119742999,\n'
    '      "ci_lb": [\n'
    '        1.38024777112,\n'
    '        2.72105941843\n'
    '      ],\n'
    '      "ci_ub": [\n'
    '        2.06788749064,\n'
    '        3.55792950282\n'
    '      ],\n'
    '      "ci_set": [\n'
    '        1.48759838056,\n'
    '        3.43863092839\n'
    '      ],\n'
    '      "critical_set": 1.64611926421,\n'
    '      "flags": [],\n'
    '      "warnings": [\n'
    '        "heterogeneous_treated_shares: pooled trimming is biased for the always-observed effect; consider the weighted estimator"\n'
    '      ],\n'
    '      "notes": []\n'
    '    },\n'
    '    {\n'
    '      "estimator": "conditional-lee",\n'
    '      "variance": "none",\n'
    '      "alpha": null,\n'
    '      "n": 41,\n'
    '      "n_used": 34,\n'
    '      "delta_lb": 1.9595959596,\n'
    '      "delta_ub": 2.55050505051,\n'
    '      "q": 0.181818181818,\n'
    '      "mu0": 1.36994949495,\n'
    '      "mu1_lb": 3.32954545455,\n'
    '      "mu1_ub": 3.92045454545,\n'
    '      "cutoff_lb": null,\n'
    '      "cutoff_ub": null,\n'
    '      "se_lb": null,\n'
    '      "se_ub": null,\n'
    '      "ci_lb": null,\n'
    '      "ci_ub": null,\n'
    '      "ci_set": null,\n'
    '      "critical_set": null,\n'
    '      "flags": [\n'
    '        "stratum_trimming_clamped:1",\n'
    '        "strata_dropped:2"\n'
    '      ],\n'
    '      "warnings": [\n'
    '        "dropped strata: c (trimming share 0.33333333333333337 retains mass 0.666667 < 1 of 1 values); e (no observed outcomes in one arm)"\n'
    '      ],\n'
    '      "notes": [\n'
    '        "conditional-lee reports no variance; method set to none"\n'
    '      ],\n'
    '      "strata_used": 7,\n'
    '      "strata_dropped": 2\n'
    '    },\n'
    '    {\n'
    '      "estimator": "lee-ipw",\n'
    '      "variance": "iid",\n'
    '      "alpha": 0.05,\n'
    '      "n": 41,\n'
    '      "n_used": 34,\n'
    '      "delta_lb": 1.74297752809,\n'
    '      "delta_ub": 2.80056179775,\n'
    '      "q": 0.254901960784,\n'
    '      "mu0": 1.33005617978,\n'
    '      "mu1_lb": 3.07303370787,\n'
    '      "mu1_ub": 4.13061797753,\n'
    '      "cutoff_lb": 4.26966292135,\n'
    '      "cutoff_ub": 2.98876404494,\n'
    '      "se_lb": 0.44809616097,\n'
    '      "se_ub": 1.31548715291,\n'
    '      "ci_lb": [\n'
    '        0.864725190978,\n'
    '        2.6212298652\n'
    '      ],\n'
    '      "ci_ub": [\n'
    '        0.22225435593,\n'
    '        5.37886923958\n'
    '      ],\n'
    '      "ci_set": [\n'
    '        0.978356762667,\n'
    '        5.04527818091\n'
    '      ],\n'
    '      "critical_set": 1.70637651474,\n'
    '      "flags": [],\n'
    '      "warnings": [],\n'
    '      "notes": []\n'
    '    }\n'
    '  ]\n'
    '}\n'
)
ESTIMATE_IID_CSV = (
    'estimator,variance,alpha,n,n_used,delta_lb,delta_ub,q,mu0,mu1_lb,mu1_ub,cutoff_lb,cutoff_ub,se_lb,se_ub,ci_lb_lo,ci_lb_hi,ci_ub_lo,ci_ub_hi,ci_set_lo,ci_set_hi,critical_set,flags,warnings,notes\n'
    'lee,iid,0.05,41,34,2.05065359477,2.81290849673,0.217391304348,1.30882352941,3.35947712418,4.12173202614,4.75,2.75,0.34205007283,0.380119742999,1.38024777112,2.72105941843,2.06788749064,3.55792950282,1.48759838056,3.43863092839,1.64611926421,,heterogeneous_treated_shares: pooled trimming is biased for the always-observed effect; consider the weighted estimator,\n'
    'conditional-lee,none,,41,34,1.9595959596,2.55050505051,0.181818181818,1.36994949495,3.32954545455,3.92045454545,nan,nan,,,,,,,,,,stratum_trimming_clamped:1;strata_dropped:2,dropped strata: c (trimming share 0.33333333333333337 retains mass 0.666667 < 1 of 1 values); e (no observed outcomes in one arm),conditional-lee reports no variance; method set to none\n'
    'lee-ipw,iid,0.05,41,34,1.74297752809,2.80056179775,0.254901960784,1.33005617978,3.07303370787,4.13061797753,4.26966292135,2.98876404494,0.44809616097,1.31548715291,0.864725190978,2.6212298652,0.22225435593,5.37886923958,0.978356762667,5.04527818091,1.70637651474,,,\n'
)


# estimate with an alpha below 1e-16 -----------------------------------------
# The program's own stdout on the pooled-bounds hand dataset, captured once
# and frozen: 1 - alpha/2 rounds to 1, so every interval is infinite and the
# run still exits 0. Command: estimate --estimator lee --variance iid
# --alpha 1e-17 --format json|csv.
TINY_ALPHA = 1e-17
TINY_ALPHA_JSON = (
    '{\n'
    '  "results": [\n'
    '    {\n'
    '      "estimator": "lee",\n'
    '      "variance": "iid",\n'
    '      "alpha": 1e-17,\n'
    '      "n": 20,\n'
    '      "n_used": 14,\n'
    '      "delta_lb": 0.0,\n'
    '      "delta_ub": 2.0,\n'
    '      "q": 0.25,\n'
    '      "mu0": 3.5,\n'
    '      "mu1_lb": 3.5,\n'
    '      "mu1_ub": 5.5,\n'
    '      "cutoff_lb": 6.0,\n'
    '      "cutoff_ub": 3.0,\n'
    '      "se_lb": 1.37751746935,\n'
    '      "se_ub": 1.37751746935,\n'
    '      "ci_lb": [\n'
    '        -Infinity,\n'
    '        Infinity\n'
    '      ],\n'
    '      "ci_ub": [\n'
    '        -Infinity,\n'
    '        Infinity\n'
    '      ],\n'
    '      "ci_set": [\n'
    '        -Infinity,\n'
    '        Infinity\n'
    '      ],\n'
    '      "critical_set": Infinity,\n'
    '      "flags": [],\n'
    '      "warnings": [],\n'
    '      "notes": []\n'
    '    }\n'
    '  ]\n'
    '}\n'
)
TINY_ALPHA_CSV = (
    'estimator,variance,alpha,n,n_used,delta_lb,delta_ub,q,mu0,mu1_lb,mu1_ub,cutoff_lb,cutoff_ub,se_lb,se_ub,ci_lb_lo,ci_lb_hi,ci_ub_lo,ci_ub_hi,ci_set_lo,ci_set_hi,critical_set,flags,warnings,notes\n'
    'lee,iid,1e-17,20,14,0,2,0.25,3.5,3.5,5.5,6,3,1.37751746935,1.37751746935,-inf,inf,-inf,inf,-inf,inf,inf,,,\n'
)
