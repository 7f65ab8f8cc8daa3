"""√c-walk simulation kernels: pair walks (D estimation) and trace indexes
(MC baseline), both distributable over Spark tasks."""
