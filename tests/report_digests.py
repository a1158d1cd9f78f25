"""sha256 of pinned qgenocchi reports, keyed by the command line.

`tests/test_cli.py` checks each one in process, and the CI workflow runs
each command through the installed console script.
"""

# sha256 of each report, recorded at version 0.1.0.  A refactor must leave
# every one unchanged; a deliberate change to report bytes updates them.
REPORT_DIGESTS = {
    "numbers --nmax 12":
        "fad5399bb02060f800f86853aa238541a1e9dc053cc4af76cccfc0d68431957e",
    "numbers --nmax 12 --format csv":
        "d622fe543d795994298438a8c7c5c3a379a4ea6b44070f9494b25a554a0ad1fd",
    "qtable --nmax 4 --kmax 3":
        "72248d15d654da8cb7c815de3738aa99ad10e99560d1a106fb47cd5f2d923771",
    "qtable --nmax 4 --kmax 3 --format csv":
        "d19fa98463dc92a5bc8ca1cd9b0829a7a0502a43058bbb5507fca75759007ca8",
    "qtable --nmax 4 --kmax 3 --q 1/4 --format csv":
        "ea07c244840aaf75feeb48d26a258f8a0c0ba97956755534f230c542bd1e61ed",
    "qtable --nmax 4 --kmax 3 --q 1/3":
        "0f675e9c4ae1c1733574caeecec137733e53a83f15603837cbaa11b03d53bf17",
    "limits --nmax 3 --kmax 3":
        "28098adfbca1036f1ebbabb348fee5c784f1ccc14d3c90f6050294f790bf3f32",
    "limits --nmax 3 --kmax 3 --format csv":
        "517f3affa7da17769f2833c9eb148d628f4eee6504f66b15f4a9f7ee7a1df926",
    "verify --nmax 2 --kmax 2":
        "5c6bb97f5cd724c2bce688e0086b91fe4549a22a4b0e009efb6867480943f425",
    "verify --nmax 2 --kmax 2 --format csv":
        "e38db87b6ae6dc3676db8d32456bac1ca67a6aab804d911aac69493a848682d6",
    "verify --nmax 2 --kmax 2 --convention q2 --format csv":
        "b3d30a32394a805ee5d300513d0e5c19a5aa93eb0ef89f8d7dcc90326b2220a5",
    # Larger grids, where the k-scaling and negative-exponent shifts run.
    "verify --nmax 4 --kmax 4":
        "70d15b9b909ac46ad5a99c36c6c52160a34e88c2ccd4312d6780600bb3efaca9",
    "verify --nmax 6 --kmax 6":
        "3d75cdeb013733f6189dcb4e5de1fb05daf8ac8ddc69badf160f9822c6be2d90",
    # (x^2b - 1)^(n-1) reaches multiplicity 7 in the prefactor here.
    "verify --nmax 8 --kmax 8":
        "642d94b4674a00237ad24546e97d58f118358e6357da2c1f02c57c66807983ce",
    "verify --nmax 10 --kmax 10":
        "c6b5ed46658e65d8bb09e5990a3ab915490ac5ae01f9ed37bc4e7d463b17807e",
    # 288 alt_qsum cells, each decided by one cross product.
    "verify --nmax 12 --kmax 12":
        "962d42b7f43f8d95f7980f4e9e8f8def1373aa68d28f8023f33866bac91066b1",
    # One alt_qsum walk carried along forty k.
    "verify --nmax 1 --kmax 40":
        "f9dd263593838e830c5c3d646919d7971b5c9ba4e5f9bf93231ade1e0fc7a213",
    # Whole q-power-sum rows and q-Pascal triangles.
    "limits --nmax 7 --kmax 10":
        "c8dd9c38c7b57455e2c90f8bfa3f6d190f2ca66f01f18a970f7d91a2522d4286",
    "limits --nmax 7 --kmax 20":
        "911b0aa6c30de4ce332142be212188a4280d24a6325110a6018a39577c9fe921",
    # Rows up to m = 12, whose last terms hold [24]_q**11.
    "limits --nmax 12 --kmax 24":
        "5e56adbec6a25ec4cd39bc0a3073c97f7227c44495860b7dbad307e067ba4f96",
    "qtable --nmax 8 --kmax 8":
        "bb3f13dd83c568df55379cc91d90750ef7c32aaf1fcf7ec5cb734854b77955dd",
    # Whole classical tables, far past the series oracle's n <= 80.
    "numbers --nmax 200":
        "190b65277e2cf1016eaa8236089cf2714622ad3c1347eb1876e08c3cf1f826d2",
    # Odd N: the last B and G are odd-index zeros, and E's last entry is
    # the one tangent number past N // 2.
    "numbers --nmax 201":
        "dd56d21c3abc8cd5c58beb08799360bdfae55895bbf37d348ee3fef69d0641a8",
    "numbers --nmax 1000":
        "6f881ece3f69c26101043f434cb9e5e2b0b67b34a6bbbf17b7ee0b55f9d2fac1",
}
