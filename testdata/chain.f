{ A chained triangular nest: k starts at j, whose own range starts
  at i. The closed-form counter declines it, so the compiler prices it
  with the reference enumeration (exact_fallbacks in dmcc's engine line). }
PROGRAM chain
PARAM m
REAL A(m,m), X(m), V(m)
DO 6 i = 1, m
  DO 6 j = i, m
    DO 6 k = j, m
5     V(k) = V(k) + A(i,j) * X(k)
6 CONTINUE
DO 9 i = 1, m
8   X(i) = V(i) + A(i,i)
9 CONTINUE
END
