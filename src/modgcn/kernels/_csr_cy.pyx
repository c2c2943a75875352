# cython: boundscheck=False, wraparound=False, cdivision=True
# Compiled CSR kernel. Loop order is fixed (rows, then stored entries,
# then dense columns) so results are bitwise-deterministic for a given
# input, as the concurrency contract requires.


def spmm(const long long[::1] indptr, const long long[::1] indices,
         const double[::1] data, const double[:, ::1] x, double[:, ::1] out):
    """out += A @ x for a CSR matrix A given by (indptr, indices, data)."""
    cdef Py_ssize_t n_rows = indptr.shape[0] - 1
    cdef Py_ssize_t p = x.shape[1]
    cdef Py_ssize_t i, jj, j, c
    cdef double v
    with nogil:
        for i in range(n_rows):
            for jj in range(indptr[i], indptr[i + 1]):
                j = indices[jj]
                v = data[jj]
                for c in range(p):
                    out[i, c] += v * x[j, c]

